//go:build !race

package service

// raceEnabled reports whether this test binary was built with the race
// detector; exact allocation-count gates skip themselves when it is on.
const raceEnabled = false
