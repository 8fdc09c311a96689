//go:build race

package portals

// recycle is false under the race detector: Release still poisons the record
// (impossible portal index, all-ones bits, the wireFreed kind that deliver,
// takeRequest, Caller.call and Release itself panic on) but never hands it
// out again, so every test CI runs with -race is a use-after-release and
// double-release detector — a stale pointer keeps pointing at the poison
// instead of at some later message.
const recycle = false
