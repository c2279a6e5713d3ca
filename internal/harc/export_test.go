package harc

// DstACLs is dstACLs, for the package's external tests.
var DstACLs = dstACLs
