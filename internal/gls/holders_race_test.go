//go:build race

package gls

// The race detector dies past 8128 simultaneously live goroutines.
const parkedHolders = 6000
