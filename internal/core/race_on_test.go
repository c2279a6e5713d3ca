//go:build race

package core

// raceBuild reports a -race build, whose instrumentation allocates on its
// own account (and where sync.Pool drops what it is given at random): an
// allocation-count or bytes pin cannot hold there.
const raceBuild = true
