package wire

import (
	"bytes"
	"testing"

	"repro/internal/loid"
	"repro/internal/oa"
)

// FuzzParseFrame drives the lazy decoder with arbitrary bytes. The
// properties checked:
//
//  1. Parse never panics or reads out of bounds (the fuzz engine
//     catches both).
//  2. Parse and the eager Unmarshal agree on accept/reject.
//  3. An accepted frame re-encodes (via the eager Message) to bytes
//     that are accepted again and decode to the same message — the
//     decoder cannot "accept" a frame into an unencodable state.
//
// The seed corpus covers v4 frames of the three kinds, each also
// stamped with the retired versions 2 and 3 (which must be rejected),
// and the corruption shapes the unit tests probe (truncations,
// trailing garbage, bad magic/version).
func FuzzParseFrame(f *testing.F) {
	req := sampleRequest()
	req.Env.Deadline = 123
	req.Env.TraceID, req.Env.SpanID, req.Env.ParentSpanID = 7, 8, 9
	rep := req.Reply(ErrApp, "boom", [][]byte{String("result")})
	rep.ReplyTo = oa.Single(oa.MemElement(3))
	oneway := &Message{Kind: KindOneWay, Target: loid.NewNoKey(9, 9), Method: "Notify"}
	noargs := &Message{Kind: KindRequest, ID: 1, Target: loid.NewNoKey(2, 3), Method: "Ping",
		ReplyTo: oa.Single(oa.MemElement(1))}
	multi := &Message{Kind: KindRequest, ID: 2, Target: loid.NewNoKey(2, 3), Method: "W",
		ReplyTo: oa.Replicated(oa.SemAll, 0, oa.MemElement(1), oa.MemElement(2), oa.MemElement(3)),
		Args:    [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 300)}}
	for _, m := range []*Message{req, rep, oneway, noargs, multi} {
		for _, ver := range []byte{2, 3, 4} {
			data := m.Marshal(nil)
			data[2] = ver
			f.Add(data)
		}
	}
	good := req.Marshal(nil)
	f.Add(good[:len(good)/2])                       // truncation
	f.Add(append(good[:len(good):len(good)], 0xFF)) // trailing garbage
	bad := append([]byte(nil), good...)
	bad[0] = 0xFF // bad magic
	f.Add(bad)
	bad2 := append([]byte(nil), good...)
	bad2[2] = 99 // bad version
	f.Add(bad2)
	f.Add([]byte{})
	f.Add([]byte{0x4C, 0x47, 4, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		perr := fr.Parse(data)
		m, uerr := Unmarshal(data)
		if (perr == nil) != (uerr == nil) {
			t.Fatalf("Parse err=%v but Unmarshal err=%v", perr, uerr)
		}
		if perr != nil {
			return
		}
		// Lazy and eager views of the accepted frame must agree.
		if fr.Kind != m.Kind || fr.ID != m.ID || fr.Code != m.Code ||
			fr.Target() != m.Target || fr.Env() != m.Env ||
			string(fr.MethodBytes()) != m.Method || fr.ErrText() != m.ErrText ||
			!fr.ReplyToAddress().Equal(m.ReplyTo) || fr.NumArgs() != len(m.Args) {
			t.Fatalf("lazy/eager disagree on %x", data)
		}
		for i := range m.Args {
			if !bytes.Equal(fr.Arg(i), m.Args[i]) {
				t.Fatalf("arg %d disagrees", i)
			}
		}
		// Round-trip: re-encode and decode again.
		re := m.Marshal(nil)
		m2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if m2.Kind != m.Kind || m2.ID != m.ID || m2.Method != m.Method ||
			m2.Code != m.Code || m2.Env != m.Env || len(m2.Args) != len(m.Args) {
			t.Fatalf("round-trip mutated the message")
		}
	})
}
