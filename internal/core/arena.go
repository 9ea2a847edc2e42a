package core

// FrameArena carves per-frame buffers out of one reusable slab — the
// generator's frame allocation strategy, extracted so every producer on
// the zero-copy frame path (generator, external tester) can stamp frames
// without a per-frame allocation. A Reset declares the generation's total
// budget up front; Frame then carves full-capacity subslices, so no carve
// can ever move the slab and dangle earlier frames. Frames and the slice
// windows returned by Since stay valid until the next Reset.
type FrameArena struct {
	slab []byte
	off  int
	out  [][]byte
}

// Reset invalidates all previously carved frames and prepares the arena
// for a generation of up to totalFrames frames spanning totalBytes,
// growing the slab if it is smaller.
func (a *FrameArena) Reset(totalBytes, totalFrames int) {
	if cap(a.slab) < totalBytes {
		a.slab = make([]byte, totalBytes)
	}
	a.slab = a.slab[:cap(a.slab)]
	a.off = 0
	if cap(a.out) < totalFrames {
		a.out = make([][]byte, 0, totalFrames)
	}
	a.out = a.out[:0]
}

// Frame carves the next n-byte frame. Its contents are unspecified (the
// slab is reused across generations); callers overwrite it fully. When
// the Reset budget is exhausted the frame spills to an owned allocation
// instead of growing the slab, so frames carved earlier never dangle.
func (a *FrameArena) Frame(n int) []byte {
	var f []byte
	if a.off+n <= len(a.slab) {
		f = a.slab[a.off : a.off+n : a.off+n]
		a.off += n
	} else {
		f = make([]byte, n)
	}
	a.out = append(a.out, f)
	return f
}

// Mark returns the current frame count, delimiting a window for Since.
func (a *FrameArena) Mark() int { return len(a.out) }

// Since returns the frames carved since mark (a previous Mark result),
// in carve order. The window aliases the arena and is valid until the
// next Reset.
func (a *FrameArena) Since(mark int) [][]byte {
	return a.out[mark:len(a.out):len(a.out)]
}
