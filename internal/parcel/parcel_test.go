package parcel

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"nmvgas/internal/gas"
)

func samples() []*Parcel {
	return []*Parcel{
		{},
		{Action: 1, Target: gas.New(2, 3, 4)},
		{Action: 65535, Target: gas.New(gas.MaxHome, gas.MaxBlock, gas.MaxBlockSize-1),
			Payload: []byte("hello"), CAction: 7, CTarget: gas.New(1, 2, 3), Src: 12, Seq: 1 << 40,
			OpID: uint64(13)<<48 | 7},
		{Action: 9, Payload: bytes.Repeat([]byte{0xAB}, 4096), Src: 3, Seq: 99, OpID: 1},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, p := range samples() {
		enc := Encode(p)
		if len(enc) != p.WireSize() {
			t.Fatalf("encoded %d bytes, WireSize says %d", len(enc), p.WireSize())
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", p, err)
		}
		if got.Action != p.Action || got.Target != p.Target || got.CAction != p.CAction ||
			got.CTarget != p.CTarget || got.Src != p.Src || got.Seq != p.Seq ||
			got.OpID != p.OpID || !bytes.Equal(got.Payload, p.Payload) {
			t.Fatalf("round trip mismatch:\n in %v\nout %v", p, got)
		}
		// Peek reads the same header fields without decoding.
		action, src, opID, err := Peek(enc)
		if err != nil || action != p.Action || src != p.Src || opID != p.OpID {
			t.Fatalf("peek %v: action %d src %d op %d err %v", p, action, src, opID, err)
		}
	}
	if _, _, _, err := Peek(make([]byte, headerSize-1)); !errors.Is(err, ErrCodec) {
		t.Errorf("peek of a short buffer: err = %v", err)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(action, caction uint16, tgt, ctgt uint64, src uint16, seq, opID uint64, payload []byte) bool {
		p := &Parcel{
			Action: ActionID(action), CAction: ActionID(caction),
			Target: gas.GVA(tgt), CTarget: gas.GVA(ctgt),
			Src: int(src), Seq: seq, OpID: opID, Payload: payload,
		}
		got, err := Decode(Encode(p))
		if err != nil {
			return false
		}
		return got.Action == p.Action && got.Target == p.Target &&
			got.CAction == p.CAction && got.CTarget == p.CTarget &&
			got.Src == p.Src && got.Seq == p.Seq && got.OpID == p.OpID &&
			bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := Encode(&Parcel{Action: 3, Payload: []byte{1, 2, 3}})

	if _, err := Decode(good[:10]); !errors.Is(err, ErrCodec) {
		t.Errorf("short buffer: err = %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0x00
	if _, err := Decode(bad); !errors.Is(err, ErrCodec) {
		t.Errorf("bad magic: err = %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[1] = 99
	if _, err := Decode(bad); !errors.Is(err, ErrCodec) {
		t.Errorf("bad version: err = %v", err)
	}
	if _, err := Decode(append(good, 0xFF)); !errors.Is(err, ErrCodec) {
		t.Errorf("trailing garbage: err = %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[42] = 200 // lie about payload length
	if _, err := Decode(bad); !errors.Is(err, ErrCodec) {
		t.Errorf("bad length: err = %v", err)
	}
}

func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	f := func(buf []byte) bool {
		defer func() {
			if recover() != nil {
				t.Error("Decode panicked")
			}
		}()
		_, _ = Decode(buf)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzParcelDecode: on arbitrary bytes Decode either errors or returns a
// parcel that encodes back to exactly those bytes, and then Peek reads
// the same action, source and op id without decoding. Neither panics.
// Both inputs are also decoded in turn into one reused Parcel, as a
// receiver does: DecodeInto fails exactly where Decode does, and after
// each success the reused parcel equals the fresh one field for field —
// nothing of the first input survives into the second. The committed
// seeds under testdata/fuzz/FuzzParcelDecode pair a valid parcel, a
// truncated header, a bad magic byte and a payload length that disagrees
// with the buffer with a valid parcel, and a parcel with a payload with
// one without.
func FuzzParcelDecode(f *testing.F) {
	ps := samples()
	for i, p := range ps {
		f.Add(Encode(p), Encode(ps[(i+1)%len(ps)]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var reused Parcel
		for _, buf := range [][]byte{a, b} {
			action, src, opID, perr := Peek(buf)
			p, err := Decode(buf)
			if ierr := DecodeInto(&reused, buf); (ierr == nil) != (err == nil) {
				t.Fatalf("Decode err %v, DecodeInto err %v", err, ierr)
			}
			if err != nil {
				continue
			}
			if enc := Encode(p); !bytes.Equal(enc, buf) {
				t.Fatalf("Encode(Decode(b)) != b:\n   b %x\nenc %x", buf, enc)
			}
			if perr != nil || action != p.Action || src != p.Src || opID != p.OpID {
				t.Fatalf("Peek = (%d, %d, %d, %v); Decode read action %d src %d op %d",
					action, src, opID, perr, p.Action, p.Src, p.OpID)
			}
			if !reflect.DeepEqual(reused, *p) {
				t.Fatalf("DecodeInto into reused storage = %v (payload %x), fresh Decode = %v (payload %x)",
					&reused, reused.Payload, p, p.Payload)
			}
		}
	})
}

func TestAppendEncodeReusesBuffer(t *testing.T) {
	p := &Parcel{Action: 1, Payload: []byte{9}}
	buf := make([]byte, 0, 256)
	out := AppendEncode(buf, p)
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendEncode reallocated despite capacity")
	}
}

func TestParcelString(t *testing.T) {
	s := (&Parcel{Action: 2, Target: gas.New(1, 2, 3)}).String()
	if !strings.Contains(s, "act=2") {
		t.Fatalf("String = %q", s)
	}
}

func TestArgsHelpers(t *testing.T) {
	b := PutU64(nil, 1<<40)
	b = PutU32(b, 7)
	b = PutI64(b, -9)
	if U64(b, 0) != 1<<40 {
		t.Fatal("U64 round trip")
	}
	if U32(b, 8) != 7 {
		t.Fatal("U32 round trip")
	}
	if I64(b, 12) != -9 {
		t.Fatal("I64 round trip")
	}
}
