//go:build !race

package gls

const parkedHolders = 10000
