//go:build race

package arc_test

// raceBuild reports a -race build, where sync.Pool drops what it is given
// at random: an allocation pin that goes through a pool cannot hold there.
const raceBuild = true
