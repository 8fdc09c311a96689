package portals

import (
	"time"

	"lwfs/internal/sim"
)

// RetryPolicy describes how a caller rides out lost messages: up to
// MaxAttempts tries, each bounded by Timeout, separated by exponential
// backoff with jitter. The zero value (or MaxAttempts <= 1, or Timeout == 0)
// disables retry entirely — the pre-fault-tolerance behavior.
//
// Retry is safe because every retried RPC carries a request ID the server
// uses to deduplicate re-executions (see Server), and the jitter draws from
// a seeded sim.Rand so a lossy run stays deterministic.
type RetryPolicy struct {
	MaxAttempts int           // total attempts, including the first
	Timeout     time.Duration // per-attempt deadline
	Backoff     time.Duration // pause after the first failed attempt
	MaxBackoff  time.Duration // backoff ceiling (0 = uncapped)
	Jitter      time.Duration // uniform extra pause in [0, Jitter)
}

func (pol RetryPolicy) Enabled() bool { return pol.MaxAttempts > 1 && pol.Timeout > 0 }

// pause computes the sleep after failed attempt number a (0-based).
func (pol RetryPolicy) Pause(a int, rng *sim.Rand) time.Duration {
	d := pol.Backoff
	for i := 0; i < a && (pol.MaxBackoff == 0 || d < pol.MaxBackoff); i++ {
		d *= 2
	}
	if pol.MaxBackoff > 0 && d > pol.MaxBackoff {
		d = pol.MaxBackoff
	}
	if pol.Jitter > 0 && rng != nil {
		d += rng.Duration(pol.Jitter)
	}
	return d
}
