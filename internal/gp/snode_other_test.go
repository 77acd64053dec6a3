//go:build !amd64 || race

package gp

// vectorTilePaths returns no pair: this build runs the Go loops only.
func vectorTilePaths() []tilePath { return nil }
