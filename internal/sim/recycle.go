//go:build !race

package sim

// recycleProcs says whether an exited process's record and coroutine go on
// the kernel's idle list: always, except under the race detector.
const recycleProcs = true
