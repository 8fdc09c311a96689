//go:build !race

package portals

// recycle says whether Release puts a record back on the free list. It does,
// except under the race detector (recycle_race.go).
const recycle = true
