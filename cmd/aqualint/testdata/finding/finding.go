// Package finding is the one-finding fixture of cmd/aqualint's exit-code
// table: it reads the host clock, which the wallclock check forbids.
package finding

import "time"

// stamp returns the host's idea of now.
func stamp() time.Time { return time.Now() }

var _ = stamp
