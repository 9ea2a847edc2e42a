package device_test

import (
	"testing"
	"time"

	"netdebug/internal/core"
	"netdebug/internal/device"
	"netdebug/internal/target"
)

// TestLocalizeFaultLeavesNoTrace: localization reads port counters, so
// ten thousand calls on one device register no tap, leave no capture
// behind, and a later burst still runs at 0 allocations.
func TestLocalizeFaultLeavesNoTrace(t *testing.T) {
	d := device.NewRouterDevice(t, target.NewReference())
	probe := device.TestFrame(26)
	taps := d.TapCount()
	for range 10000 {
		if diag := core.LocalizeFault(d, probe, 0, 1); diag.Stage != "none" {
			t.Fatalf("healthy device localized to %q (%v)", diag.Stage, diag.Evidence)
		}
	}
	if got := d.TapCount(); got != taps {
		t.Fatalf("%d taps after 10^4 localizations, %d before", got, taps)
	}
	if caps := d.Captures(1); len(caps) != 0 {
		t.Fatalf("localization left %d captures on port 1", len(caps))
	}
	if !d.CaptureEnabled() {
		t.Fatal("localization left capture off")
	}

	const n = 64
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = probe
	}
	burst := func() {
		if err := d.SendExternalBurst(0, frames, d.Now(), 700*time.Nanosecond); err != nil {
			t.Fatal(err)
		}
		if caps := d.Captures(1); len(caps) != n {
			t.Fatalf("%d captures, want %d", len(caps), n)
		}
		d.ReleaseCaptures(1)
	}
	for range 3 { // reach slab/meta high-water
		burst()
	}
	if avg := testing.AllocsPerRun(50, burst); avg != 0 {
		t.Fatalf("burst after localization allocates %.2f allocs/op (%.4f allocs/frame), want 0", avg, avg/n)
	}
}
