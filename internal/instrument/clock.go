package instrument

import "time"

// Clock is the repository's sanctioned monotonic time source. Deterministic
// packages (internal/core, internal/online, internal/journal, …) are
// forbidden to read the wall clock directly — the wallclock analyzer in
// internal/lint flags every time.Now/Since there — because a wall-clock read
// that leaks into a trace, journal, or table breaks the byte-identical
// replay contract. Stage and phase *timing*, however, is legitimate
// instrumentation: it feeds timers and histograms whose values never enter
// deterministic output (the JSONL trace sink drops timing fields). Clock is
// the one blessed channel for that: a monotonic reading injectable for
// tests, so timing-dependent logic stays deterministic under test while the
// production clock is the host's monotonic source.
//
// A Clock returns a monotonic reading as a time.Duration since an arbitrary
// fixed origin; only differences between readings are meaningful.
type Clock func() time.Duration

// monoBase anchors the process-monotonic clock. time.Since uses the
// monotonic reading embedded in the base, so Mono never goes backwards and
// is immune to wall-clock adjustments.
var monoBase = time.Now()

// Mono returns the default monotonic reading: time since process start.
// This is the production Clock behind MonoClock; deterministic packages call
// it (or a Clock handed to them) instead of time.Now.
func Mono() time.Duration { return time.Since(monoBase) }

// MonoClock returns the process-monotonic production Clock.
func MonoClock() Clock { return Mono }
