package control

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
)

// randEntry draws an entry over what the wire must carry: widths 0 to
// 128, negative prefix lengths and priorities, nil, empty and full key
// and arg lists, empty and non-ASCII names.
func randEntry(rng *rand.Rand) dataplane.Entry {
	names := []string{"", "acl", "ipv4_lpm", "allow", "τάβλα", "\xff\x00"}
	value := func() bitfield.Value {
		w := rng.Intn(bitfield.MaxWidth + 1)
		if rng.Intn(4) == 0 {
			w = bitfield.MaxWidth
		}
		return bitfield.New128(rng.Uint64(), rng.Uint64(), w)
	}
	count := func() int {
		switch rng.Intn(4) {
		case 0:
			return -1 // nil
		case 1:
			return 0 // empty
		}
		return 1 + rng.Intn(4)
	}
	e := dataplane.Entry{
		Table:    names[rng.Intn(len(names))],
		Action:   names[rng.Intn(len(names))],
		Priority: []int{0, 7, -3, math.MaxInt, math.MinInt}[rng.Intn(5)],
	}
	if n := count(); n >= 0 {
		e.Keys = make([]dataplane.KeyValue, n)
		for i := range e.Keys {
			e.Keys[i] = dataplane.KeyValue{Value: value(), PrefixLen: rng.Intn(300) - 100}
			if rng.Intn(2) == 0 {
				e.Keys[i].Mask = value()
			}
		}
	}
	if n := count(); n >= 0 {
		e.Args = make([]bitfield.Value, n)
		for i := range e.Args {
			e.Args[i] = value()
		}
	}
	return e
}

// decodeBlock decodes block into es on d, as a server does after a
// frame's head.
func decodeBlock(d *reader, es []dataplane.Entry, block []byte) bool {
	d.reset(block)
	return d.decode(es)
}

// TestEntryCodecMatchesGob: what an entry decodes to after the entries
// block is what it decoded to as a gob value, one entry to a block or
// the whole batch in one.
func TestEntryCodecMatchesGob(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sent := make([]dataplane.Entry, 500)
	viaGob := make([]dataplane.Entry, len(sent))
	var d reader
	for i := range sent {
		sent[i] = randEntry(rng)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&sent[i]); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(&buf).Decode(&viaGob[i]); err != nil {
			t.Fatal(err)
		}
		one := make([]dataplane.Entry, 1)
		if !decodeBlock(&d, one, appendEntries(nil, sent[i:i+1])) {
			t.Fatalf("entry %d refused", i)
		}
		if !reflect.DeepEqual(one[0], viaGob[i]) {
			t.Fatalf("entry %d: codec %+v, gob %+v", i, one[0], viaGob[i])
		}
	}
	all := make([]dataplane.Entry, len(sent))
	if !decodeBlock(&d, all, appendEntries(nil, sent)) {
		t.Fatal("the batch was refused")
	}
	if !reflect.DeepEqual(all, viaGob) {
		t.Fatal("a batch decodes unlike its entries one by one")
	}
}

// TestEntryDecoderSharesNames: a name decoded again on one connection is
// the string decoded the first time. No two entries of one block share
// key or arg storage, not even past their length, where an append would
// write; a reader decodes the next block into the storage of the last, so
// a handler may keep nothing of a request.
func TestEntryDecoderSharesNames(t *testing.T) {
	e := dataplane.Entry{Table: "acl", Action: "allow",
		Keys: []dataplane.KeyValue{{Value: bitfield.New(1, 8)}}, Args: []bitfield.Value{bitfield.New(2, 9)}}
	block := appendEntries(nil, []dataplane.Entry{e, e})
	var d reader
	first, again, third := make([]dataplane.Entry, 2), make([]dataplane.Entry, 2), make([]dataplane.Entry, 2)
	if !decodeBlock(&d, first, block) || !decodeBlock(&d, again, block) || !decodeBlock(&d, third, block) {
		t.Fatal("a valid block was refused")
	}
	for _, got := range []dataplane.Entry{first[1], again[0], again[1]} {
		if unsafe.StringData(got.Table) != unsafe.StringData(first[0].Table) ||
			unsafe.StringData(got.Action) != unsafe.StringData(first[0].Action) {
			t.Fatal("an equal name decoded to a string of its own")
		}
	}
	for _, es := range [][]dataplane.Entry{first, again} {
		a, b := es[0], es[1]
		if &a.Keys[0] == &b.Keys[0] || &a.Args[0] == &b.Args[0] || cap(a.Keys) != 1 || cap(a.Args) != 1 {
			t.Fatal("two entries of one block share key or arg storage")
		}
	}
	for i := range third {
		if &third[i].Keys[0] != &again[i].Keys[0] || &third[i].Args[0] != &again[i].Args[0] {
			t.Fatalf("entry %d of a block decoded into fresh storage", i)
		}
	}
}

// wireFrame is a request frame's length, then its head — ID 1, kind, n
// entries, no table — and rest.
func wireFrame(kind ReqKind, n int, rest []byte) []byte {
	f := appendName(binary.AppendUvarint(append(binary.AppendUvarint(nil, 1), byte(kind)), uint64(n)), "")
	f = append(f, rest...)
	return append(binary.AppendUvarint(nil, uint64(len(f))), f...)
}

// TestServeDropsMalformedBlocks: a block that claims more items than its
// bytes could hold, a frame length over maxFrame, a frame cut short, a
// block that does not fill its frame exactly, and a payload that is not
// one gob value and nothing more, or whose stream marker is neither 0 nor
// 1, each end the connection before the
// handler sees the request.
func TestServeDropsMalformedBlocks(t *testing.T) {
	e := dataplane.Entry{Table: "acl", Keys: []dataplane.KeyValue{{Value: bitfield.New(1, 8)}}}
	good := appendEntries(nil, []dataplane.Entry{e})
	claims := append(appendName(nil, "acl"), 100, 1, 2, 3, 4, 5, 6, 7, 8) // 100 keys in 8 bytes
	payload, err := new(payloads).append(nil, 0, body{Payload: []byte{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	goodFrame := wireFrame(ReqInstallEntry, 1, good)
	for name, data := range map[string][]byte{
		"count over bytes":             wireFrame(ReqInstallEntry, 1, claims),
		"frame length over the cap":    append(binary.AppendUvarint(nil, maxFrame+1), goodFrame...),
		"cut short":                    goodFrame[:len(goodFrame)-1],
		"entries over bytes":           wireFrame(ReqInstallEntry, 2, good),
		"trailing bytes":               wireFrame(ReqInstallEntry, 1, append(good, 0)),
		"payload with trailing bytes":  wireFrame(ReqConfigureGen, 0, append(payload, 0)),
		"payload cut short":            wireFrame(ReqConfigureGen, 0, payload[:len(payload)-1]),
		"payload that is no gob value": wireFrame(ReqConfigureGen, 0, good),
		"payload stream marker of 2":   wireFrame(ReqConfigureGen, 0, append([]byte{2}, payload[1:]...)),
	} {
		seen := 0
		err := serveBytes(data, handlerFunc(func(*Request) *Response { seen++; return &Response{} }))
		if err == nil || seen != 0 {
			t.Errorf("%s: Serve ended with %v, handler saw %d requests", name, err, seen)
		}
	}
	seen := 0
	serveBytes(append(goodFrame, wireFrame(ReqConfigureGen, 0, payload)...),
		handlerFunc(func(*Request) *Response { seen++; return &Response{Done: 1} }))
	if seen != 2 {
		t.Fatalf("the well-formed write and payload reached the handler %d times", seen)
	}
}

// FuzzEntryCodec feeds arbitrary bytes to the block decoder, byte 0
// choosing the entry count. It must not panic, and what it accepts must
// encode to a block that decodes the same: the codec is a fixpoint on
// what it accepts. A reader that has just decoded another block must
// decode it as a fresh reader does: reused storage leaks nothing of the
// last frame.
func FuzzEntryCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for n := range 4 {
		es := make([]dataplane.Entry, n)
		for i := range es {
			es[i] = randEntry(rng)
		}
		f.Add(appendEntries([]byte{byte(n)}, es))
	}
	// The block decoded before: eight entries of four keys and four args,
	// every field set, so a block after it reuses storage full of them.
	full := dataplane.KeyValue{Value: bitfield.Mask(bitfield.MaxWidth), PrefixLen: -1, Mask: bitfield.Mask(bitfield.MaxWidth)}
	before := make([]dataplane.Entry, 8)
	for i := range before {
		before[i] = dataplane.Entry{Table: "acl", Action: "allow", Priority: -1,
			Keys: []dataplane.KeyValue{full, full, full, full}, Args: []bitfield.Value{full.Value, full.Value, full.Value, full.Value}}
	}
	beforeBlock := appendEntries(nil, before)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var fresh, reused reader
		got := make([]dataplane.Entry, data[0]%8)
		if !decodeBlock(&fresh, got, data[1:]) {
			return
		}
		if !decodeBlock(&reused, make([]dataplane.Entry, len(before)), beforeBlock) {
			t.Fatal("the block before was refused")
		}
		after := make([]dataplane.Entry, len(got))
		if !decodeBlock(&reused, after, data[1:]) {
			t.Fatal("a block was refused after another")
		}
		if !reflect.DeepEqual(got, after) {
			t.Fatalf("decoded %+v, after another block %+v", got, after)
		}
		again := make([]dataplane.Entry, len(got))
		if !decodeBlock(&reused, again, appendEntries(nil, got)) {
			t.Fatal("re-encoded entries refused")
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("decoded %+v, re-encoded and decoded %+v", got, again)
		}
	})
}
