// Package flightrec forwards the two calls the frozen bench/ makes to the
// one recorder, internal/trace, whose gate now also switches per-request
// recording.  ROADMAP item 4 moves the bench onto trace and deletes this
// package.
package flightrec

import "repro/internal/trace"

// SetEnabled is trace.SetEnabled.
func SetEnabled(on bool) { trace.SetEnabled(on) }

// Reset is trace.Reset.
func Reset() { trace.Reset() }
