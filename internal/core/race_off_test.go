//go:build !race

package core

// raceBuild reports a -race build (see race_on_test.go).
const raceBuild = false
