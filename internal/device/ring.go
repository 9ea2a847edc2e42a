package device

import "time"

// The capture ring gives the TX capture store borrow semantics instead of
// ownership-by-copy. While capture is on, enqueue appends each transmitted
// frame's bytes into the port's accumulating segment — one contiguous slab
// plus per-frame metadata — so the per-frame cost is an amortized slab
// append, not a fresh allocation. Captures drains by materializing
// CapturedFrame views into the slab (the slab can no longer move once the
// segment stops accumulating) and handing the segment to the port's
// borrowed list; the caller reads the frames in place and returns them
// with ReleaseCaptures, which recycles the segment — slab, metadata and
// frame headers — into the port's own bounded free list, overflowing into
// a device-level spillway. Per-port recycling keeps a busy port's grown
// slabs cycling back to that port (a segment sized by an 8K-frame drain is
// not handed to a port capturing single frames), while the spillway lets
// idle ports' segments serve busy ones. In steady state the burst path
// therefore runs at zero allocations per frame with capture retained.
//
// The store the ring replaced — an owned copy per frame, no release step —
// lives on only as a test-scope model (copyStore in ring_test.go): a
// TapMACOut tap that copies each frame while capture is on, which the
// differential test holds the ring to.

// capMeta locates one captured frame inside its segment's slab.
type capMeta struct {
	off, n int
	at     time.Duration
}

// capSegment is one reusable capture buffer: frames accumulate into slab
// while the segment is attached to a port, and frames[] is materialized
// once at drain time, when the slab is final. home is the port the
// segment was last attached to — the only port whose ReleaseCaptures may
// recycle it.
type capSegment struct {
	slab   []byte
	meta   []capMeta
	frames []CapturedFrame
	home   int
}

// portSegFreeCap bounds a port's own free list; releases beyond it spill
// to the device-level spillway.
const portSegFreeCap = 8

// grabSegment returns the port's accumulating segment, attaching one from
// the port's free list, then the device spillway, then a fresh one.
func (d *Device) grabSegment(p *portState) *capSegment {
	if p.seg != nil {
		return p.seg
	}
	if n := len(p.segFree); n > 0 {
		p.seg = p.segFree[n-1]
		p.segFree[n-1] = nil
		p.segFree = p.segFree[:n-1]
	} else if n := len(d.segSpill); n > 0 {
		p.seg = d.segSpill[n-1]
		d.segSpill[n-1] = nil
		d.segSpill = d.segSpill[:n-1]
	} else {
		p.seg = &capSegment{}
	}
	p.seg.home = p.idx
	return p.seg
}

// capture retains one transmitted frame by appending it into the port's
// segment.
func (d *Device) capture(p *portState, data []byte, txDone time.Duration) {
	seg := d.grabSegment(p)
	off := len(seg.slab)
	seg.slab = append(seg.slab, data...)
	seg.meta = append(seg.meta, capMeta{off: off, n: len(data), at: txDone})
}

// Captures drains and returns the frames transmitted on a port since the
// last call — what an external tester's capture port sees. The returned
// frames are views into a capture segment borrowed from the device: they
// stay valid until ReleaseCaptures(port), which recycles the backing
// memory. Callers that need frames beyond that point must copy them.
func (d *Device) Captures(port int) []CapturedFrame {
	if port < 0 || port >= len(d.ports) {
		return nil
	}
	p := d.ports[port]
	seg := p.seg
	if seg == nil || len(seg.meta) == 0 {
		return nil
	}
	p.seg = nil
	// Materialize the frame views only now: while the segment was
	// accumulating, slab appends could move the backing array, so
	// subslices taken at capture time would dangle.
	seg.frames = seg.frames[:0]
	for _, m := range seg.meta {
		seg.frames = append(seg.frames, CapturedFrame{
			Data: seg.slab[m.off : m.off+m.n : m.off+m.n],
			At:   m.at,
		})
	}
	p.borrowed = append(p.borrowed, seg)
	return seg.frames
}

// ReleaseCaptures returns every capture slice previously drained from the
// port back to the device, recycling the backing segments. All frames
// obtained from Captures(port) — including their Data bytes — are invalid
// afterwards. It is a no-op for out-of-range ports and for ports with
// nothing borrowed, so release calls are always safe.
func (d *Device) ReleaseCaptures(port int) {
	if port < 0 || port >= len(d.ports) {
		return
	}
	p := d.ports[port]
	for i, seg := range p.borrowed {
		p.borrowed[i] = nil
		if seg.home != p.idx {
			// A segment can only come home to the port that grabbed it;
			// anything else indicates corrupted borrow bookkeeping, so
			// drop the segment rather than recycle a buffer another port
			// may still be reading through.
			d.cSegHomeMismatch.Inc()
			continue
		}
		seg.slab = seg.slab[:0]
		seg.meta = seg.meta[:0]
		seg.frames = seg.frames[:0]
		if len(p.segFree) < portSegFreeCap {
			p.segFree = append(p.segFree, seg)
		} else {
			d.segSpill = append(d.segSpill, seg)
		}
	}
	p.borrowed = p.borrowed[:0]
}
