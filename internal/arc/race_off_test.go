//go:build !race

package arc_test

// raceBuild reports a -race build (see race_on_test.go).
const raceBuild = false
