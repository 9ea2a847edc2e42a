package device

// The zero-copy capture ring must be indistinguishable from the copying
// capture store it replaced (copyStore, below) — same frames, same bytes,
// same timestamps, across faults, bursts, and capture toggles — while
// keeping drained frames valid until ReleaseCaptures and running the
// burst path at zero allocations per frame.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"netdebug/internal/target"
)

// copyStore is the retired copying capture store as a model that owns
// its state: a TapMACOut tap (which fires on the transmitted bytes just
// before the device captures them) keeps an owned copy of every frame
// sent while capture is on, per port; Captures hands the copies over
// with no release step.
type copyStore struct {
	byPort map[int][]CapturedFrame
}

func attachCopyStore(d *Device) *copyStore {
	s := &copyStore{byPort: make(map[int][]CapturedFrame)}
	d.Tap(TapMACOut, func(ev TapEvent) {
		if d.CaptureEnabled() {
			s.byPort[ev.Port] = append(s.byPort[ev.Port], CapturedFrame{
				Data: append([]byte(nil), ev.Data...),
				At:   ev.At,
			})
		}
	})
	return s
}

func (s *copyStore) Captures(port int) []CapturedFrame {
	out := s.byPort[port]
	delete(s.byPort, port)
	return out
}

func sameCaptures(a, b []CapturedFrame) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d frames vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			return fmt.Errorf("frame %d: data differs (%d vs %d bytes)", i, len(a[i].Data), len(b[i].Data))
		}
		if a[i].At != b[i].At {
			return fmt.Errorf("frame %d: at %v vs %v", i, a[i].At, b[i].At)
		}
	}
	return nil
}

// runCaptureRingDifferential drives one seeded op schedule through a
// device and a second device feeding the copyStore model and checks the
// drains agree packet-for-packet. Ring drains are deliberately held
// across later traffic before being compared and released, proving
// borrowed frames stay valid until ReleaseCaptures.
func runCaptureRingDifferential(t *testing.T, seed int64, rounds int) {
	t.Helper()
	ring := newRouterDevice(t, target.NewReference())
	oracle := newRouterDevice(t, target.NewReference())
	model := attachCopyStore(oracle)
	rng := rand.New(rand.NewSource(seed))
	clock := time.Duration(0)

	// held accumulates undrained ring borrows (and oracle snapshots) so
	// the retained-reference comparison spans several drains.
	var heldRing, heldOracle []CapturedFrame

	sendBoth := func(frame []byte, at time.Duration) {
		if err := ring.SendExternal(0, frame, at); err != nil {
			t.Fatal(err)
		}
		if err := oracle.SendExternal(0, frame, at); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		switch rng.Intn(6) {
		case 0, 1: // burst of mixed frames
			n := 1 + rng.Intn(32)
			frames := make([][]byte, n)
			for i := range frames {
				f := testFrame(20 + rng.Intn(200))
				if rng.Intn(5) == 0 {
					f[14] = 0x65 // parser reject
				}
				frames[i] = f
			}
			interval := time.Duration(500+rng.Intn(1000)) * time.Nanosecond
			if err := ring.SendExternalBurst(0, frames, clock, interval); err != nil {
				t.Fatal(err)
			}
			if err := oracle.SendExternalBurst(0, frames, clock, interval); err != nil {
				t.Fatal(err)
			}
			clock += time.Duration(n) * interval
		case 2: // single frames
			for i := 0; i < 1+rng.Intn(8); i++ {
				sendBoth(testFrame(20+rng.Intn(100)), clock)
				clock += time.Microsecond
			}
		case 3: // bit-flip fault, deterministic per device pair
			fseed := rng.Int63()
			ring.InjectFault(Fault{Kind: FaultBitFlip, Port: 0, Seed: fseed})
			oracle.InjectFault(Fault{Kind: FaultBitFlip, Port: 0, Seed: fseed})
			for i := 0; i < 4; i++ {
				sendBoth(testFrame(64), clock)
				clock += time.Microsecond
			}
			ring.ClearFaults()
			oracle.ClearFaults()
		case 4: // freeze the egress queue, then release it
			ring.InjectFault(Fault{Kind: FaultQueueStuck, Port: 1})
			oracle.InjectFault(Fault{Kind: FaultQueueStuck, Port: 1})
			for i := 0; i < 4+rng.Intn(8); i++ {
				sendBoth(testFrame(40), clock)
				clock += time.Microsecond
			}
			ring.ClearFaults()
			oracle.ClearFaults()
			clock = ring.Now()
		case 5: // capture gap: frames transmitted while off are not retained
			ring.SetCaptureEnabled(false)
			oracle.SetCaptureEnabled(false)
			sendBoth(testFrame(64), clock)
			clock += time.Microsecond
			ring.SetCaptureEnabled(true)
			oracle.SetCaptureEnabled(true)
		}
		if rng.Intn(3) == 0 {
			rc, oc := ring.Captures(1), model.Captures(1)
			if err := sameCaptures(rc, oc); err != nil {
				t.Fatalf("seed %d round %d: ring vs oracle: %v", seed, r, err)
			}
			// Hold the borrow across later rounds instead of releasing;
			// the model's frames are owned copies and simply stay.
			heldRing = append(heldRing, rc...)
			heldOracle = append(heldOracle, oc...)
		}
	}
	// The held borrows — some drained many rounds ago, with bursts, fault
	// traffic, and more drains in between — must still read back exactly.
	if err := sameCaptures(heldRing, heldOracle); err != nil {
		t.Fatalf("seed %d: retained ring captures corrupted: %v", seed, err)
	}
	ring.ReleaseCaptures(1)
	// After release the final drain must come up clean on both.
	rc, oc := ring.Captures(1), model.Captures(1)
	if err := sameCaptures(rc, oc); err != nil {
		t.Fatalf("seed %d: post-release drain: %v", seed, err)
	}
	ring.ReleaseCaptures(1)
	for _, port := range []int{0, 2, 3} {
		if n, m := len(ring.Captures(port)), len(model.Captures(port)); n != 0 || m != 0 {
			t.Fatalf("seed %d: %d ring / %d model stray captures on port %d", seed, n, m, port)
		}
	}
}

// TestDifferentialCaptureRing cross-checks the zero-copy capture ring
// against the copying model at 1, 2, and 8 workers (each worker owns an
// independent device pair).
func TestDifferentialCaptureRing(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					runCaptureRingDifferential(t, int64(workers*1000+w), 40)
				}()
			}
			wg.Wait()
		})
	}
}

// TestCaptureRingRecyclesSegments: a drain-release cycle reuses the same
// backing segment instead of allocating fresh ones, and release makes
// the port's borrow list empty without disturbing later captures.
func TestCaptureRingRecyclesSegments(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	frames := make([][]byte, 16)
	for i := range frames {
		frames[i] = testFrame(64)
	}
	for cycle := 0; cycle < 5; cycle++ {
		if err := d.SendExternalBurst(0, frames, d.Now(), time.Microsecond); err != nil {
			t.Fatal(err)
		}
		caps := d.Captures(1)
		if len(caps) != len(frames) {
			t.Fatalf("cycle %d: %d captures, want %d", cycle, len(caps), len(frames))
		}
		d.ReleaseCaptures(1)
	}
	if got := len(d.ports[1].segFree); got != 1 {
		t.Fatalf("port 1 free list holds %d segments after 5 cycles, want 1 (recycled)", got)
	}
	if got := len(d.segSpill); got != 0 {
		t.Fatalf("spillway holds %d segments, want 0 (port list has room)", got)
	}
	// Double release and release of never-drained ports are safe no-ops.
	d.ReleaseCaptures(1)
	d.ReleaseCaptures(0)
	d.ReleaseCaptures(-1)
	d.ReleaseCaptures(99)
}

// TestSendExternalBurstAllocFree pins the zero-copy contract: in steady
// state the burst path runs at zero allocations per frame with capture
// retained (ring mode) and with capture off, mirroring the Engine.Process
// alloc tests.
func TestSendExternalBurstAllocFree(t *testing.T) {
	const n = 64
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = testFrame(26)
	}
	run := func(t *testing.T, d *Device, drain bool) {
		t.Helper()
		iter := func() {
			if err := d.SendExternalBurst(0, frames, d.Now(), 700*time.Nanosecond); err != nil {
				t.Fatal(err)
			}
			if drain {
				if caps := d.Captures(1); len(caps) != n {
					t.Fatalf("%d captures, want %d", len(caps), n)
				}
				d.ReleaseCaptures(1)
			}
		}
		for i := 0; i < 3; i++ { // reach slab/meta high-water
			iter()
		}
		if avg := testing.AllocsPerRun(50, iter); avg != 0 {
			t.Fatalf("burst path allocates %.2f allocs/op (%.4f allocs/frame), want 0", avg, avg/n)
		}
	}
	t.Run("captureOn", func(t *testing.T) {
		run(t, newRouterDevice(t, target.NewReference()), true)
	})
	t.Run("captureOff", func(t *testing.T) {
		d := newRouterDevice(t, target.NewReference())
		d.SetCaptureEnabled(false)
		run(t, d, false)
	})
}

// BenchmarkSendExternalBurst is the zero-copy burst benchmark: full
// capture retention, drain and release every burst, expected to run at
// 0 allocs/op (TestSendExternalBurstAllocFree asserts it).
func BenchmarkSendExternalBurst(b *testing.B) {
	d := newRouterDevice(b, target.NewReference())
	const n = 64
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = testFrame(26)
	}
	b.SetBytes(int64(n * len(frames[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.SendExternalBurst(0, frames, d.Now(), 700*time.Nanosecond); err != nil {
			b.Fatal(err)
		}
		if caps := d.Captures(1); len(caps) != n {
			b.Fatalf("%d captures, want %d", len(caps), n)
		}
		d.ReleaseCaptures(1)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*n/secs/1e6, "Mpps")
	}
}
