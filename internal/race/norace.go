//go:build !race

// Package race reports whether the binary was built with the race
// detector, which changes allocation counts: tests that pin allocation
// budgets with testing.AllocsPerRun skip themselves when Enabled.
package race

// Enabled is true in binaries built with -race.
const Enabled = false
