//go:build race

package sim

// recycleProcs is false under the race detector: an exited record stays
// poisoned (not running, incarnation moved on) and is never re-armed, so every
// -race test is a use-after-exit detector: a stale *Proc that blocks panics.
const recycleProcs = false
