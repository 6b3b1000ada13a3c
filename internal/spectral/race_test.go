//go:build race

package spectral

// raceEnabled is true in -race builds, where the 65,536-profile team
// check would take minutes.
const raceEnabled = true
