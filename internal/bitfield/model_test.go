package bitfield

// The reference model of Extract and Inject: the byte-at-a-time loops the
// word-lane implementation replaced, kept here as the oracle the fuzz
// target and the sweep below compare it against. The model owns its
// range checks, so the two sides must agree on errors as well as values.

import (
	"bytes"
	"fmt"
	"testing"
)

func extractModel(buf []byte, off, w int) (Value, error) {
	if w < 0 || w > MaxWidth {
		return Value{}, fmt.Errorf("bitfield: extract width %d outside [0,%d]", w, MaxWidth)
	}
	if off < 0 || off > len(buf)*8-w {
		return Value{}, fmt.Errorf("bitfield: extract [%d,%d) beyond %d-bit buffer", off, off+w, len(buf)*8)
	}
	v := Value{W: w}
	// Consume whole bytes where possible, then trailing bits.
	bit := off
	remaining := w
	for remaining > 0 {
		byteIdx := bit / 8
		bitInByte := bit % 8
		take := 8 - bitInByte
		if take > remaining {
			take = remaining
		}
		chunk := uint64(buf[byteIdx]>>(8-bitInByte-take)) & ((1 << uint(take)) - 1)
		v = v.shiftLeftRaw(take)
		v.Lo |= chunk
		bit += take
		remaining -= take
	}
	return v, nil
}

func injectModel(buf []byte, off, w int, val Value) error {
	if w < 0 || w > MaxWidth {
		return fmt.Errorf("bitfield: inject width %d outside [0,%d]", w, MaxWidth)
	}
	if off < 0 || off > len(buf)*8-w {
		return fmt.Errorf("bitfield: inject [%d,%d) beyond %d-bit buffer", off, off+w, len(buf)*8)
	}
	// Write from the least-significant end backwards.
	tmp := val.WithWidth(w)
	bit := off + w
	remaining := w
	for remaining > 0 {
		bitInByte := bit % 8
		if bitInByte == 0 {
			bitInByte = 8
		}
		take := bitInByte
		if take > remaining {
			take = remaining
		}
		byteIdx := (bit - 1) / 8
		shift := 8 - bitInByte
		mask := byte(((1 << uint(take)) - 1) << uint(shift))
		buf[byteIdx] = buf[byteIdx]&^mask | byte(tmp.Lo<<uint(shift))&mask
		tmp = tmp.shiftRightRaw(take)
		bit -= take
		remaining -= take
	}
	return nil
}

// checkAgainstModel is the one property both the fuzz target and the
// sweep assert for a (buf, off, w, value): Extract and Inject return the
// model's value, bytes and error; what was injected reads back; and no
// bit outside [off, off+w) moved.
func checkAgainstModel(t *testing.T, buf []byte, off, w int, hi, lo uint64) {
	t.Helper()
	got, err := Extract(buf, off, w)
	want, wantErr := extractModel(buf, off, w)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Extract(%x, %d, %d) error %v, model %v", buf, off, w, err, wantErr)
	}
	if got != want {
		t.Fatalf("Extract(%x, %d, %d) = %v, model %v", buf, off, w, got, want)
	}

	val := Value{Hi: hi, Lo: lo, W: MaxWidth} // wider than w: Inject must truncate
	mine := append([]byte(nil), buf...)
	model := append([]byte(nil), buf...)
	err, wantErr = Inject(mine, off, w, val), injectModel(model, off, w, val)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Inject(%x, %d, %d) error %v, model %v", buf, off, w, err, wantErr)
	}
	if !bytes.Equal(mine, model) {
		t.Fatalf("Inject(%x, %d, %d, %v) wrote %x, model %x", buf, off, w, val, mine, model)
	}
	if err != nil {
		if !bytes.Equal(mine, buf) {
			t.Fatalf("failed Inject(%x, %d, %d) wrote %x", buf, off, w, mine)
		}
		return
	}
	if back := MustExtract(mine, off, w); back != val.WithWidth(w) {
		t.Fatalf("Extract(Inject(%v)) at (%d, %d) = %v", val.WithWidth(w), off, w, back)
	}
	for bit := 0; bit < len(buf)*8; bit++ {
		if bit >= off && bit < off+w {
			continue
		}
		if m := byte(0x80) >> (bit % 8); mine[bit/8]&m != buf[bit/8]&m {
			t.Fatalf("Inject(%x, %d, %d) moved bit %d outside the field: %x", buf, off, w, bit, mine)
		}
	}
}

// FuzzExtractInject is the differential fuzz of the word-lane Extract and
// Inject against the byte-loop model, over arbitrary buffers, offsets and
// widths — out-of-range ones included, where the errors must agree. The
// seed corpus is testdata/fuzz/FuzzExtractInject, one named file per
// corner: empty fields, 57–64 and 65–128 bits, nine-byte spans, fields
// ending on the buffer's last bit, buffers shorter than a word.
func FuzzExtractInject(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte, off, w int, hi, lo uint64) {
		checkAgainstModel(t, buf, off, w, hi, lo)
	})
}

// TestExtractInjectMatchesModel sweeps every (off, w) — one bit out of
// range on each side included — over buffers shorter than, equal to and
// longer than a word, so plain `go test` covers what the fuzz target
// explores.
func TestExtractInjectMatchesModel(t *testing.T) {
	pattern := make([]byte, 25)
	for i := range pattern {
		pattern[i] = byte(0xa7*i + 0x35)
	}
	for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 25} {
		for off := -1; off <= n*8+1; off++ {
			for w := -1; w <= MaxWidth+1; w++ {
				checkAgainstModel(t, pattern[:n], off, w, ^uint64(0), 0x5555aaaa5555aaaa)
				checkAgainstModel(t, pattern[:n], off, w, 0, 0)
			}
		}
	}
}
