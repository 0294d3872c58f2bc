package netsim

import (
	"reflect"
	"testing"
)

// TestRecyclerCapAndGive: a context reissues what it released, last in
// first out, keeps at most RecycleCap per list, and Give moves spares
// only while the giver is above keep and the taker below upTo. Under
// msgpoison nothing released is ever handed out again.
func TestRecyclerCapAndGive(t *testing.T) {
	var r Recycler
	released := map[*Message]bool{}
	bufs := map[*byte]bool{}
	var taken [][]byte
	for i := 0; i < RecycleCap+10; i++ {
		m := new(Message)
		r.Release(m)
		released[m] = true
		for _, n := range []int{1, BufSmall, BufSmall + 1, BufLarge} {
			b, pooled := r.Buf(n)
			if !pooled || cap(b) < n || len(b) != 0 {
				t.Fatalf("Buf(%d) = len %d cap %d pooled %v", n, len(b), cap(b), pooled)
			}
			bufs[&b[:1][0]] = true
			taken = append(taken, b)
		}
	}
	for _, b := range taken {
		r.PutBuf(b)
	}
	if b, pooled := r.Buf(BufLarge + 1); pooled || cap(b) < BufLarge+1 {
		t.Fatalf("an oversized buffer came from a class")
	}
	if msgPoison {
		if len(r.msgs) != 0 {
			t.Fatalf("a poisoning Recycler kept %d messages", len(r.msgs))
		}
		for i := 0; i < RecycleCap; i++ {
			if released[r.Message()] {
				t.Fatal("a released message was handed out again")
			}
			if b, _ := r.Buf(BufSmall); bufs[&b[:1][0]] {
				t.Fatal("a released buffer was handed out again")
			}
		}
		return
	}
	if len(r.msgs) != RecycleCap || len(r.small) != RecycleCap || len(r.large) != RecycleCap {
		t.Fatalf("kept %d messages, %d small and %d large buffers, cap %d", len(r.msgs), len(r.small), len(r.large), RecycleCap)
	}
	last := r.msgs[len(r.msgs)-1]
	if m := r.Message(); m != last || !reflect.ValueOf(*m).IsZero() {
		t.Fatalf("Message did not reissue the last release, zeroed")
	}
	var o Recycler
	r.Give(&o, 10, 5)
	if len(o.msgs) != 5 || len(r.msgs) != RecycleCap-1-5 {
		t.Fatalf("Give(keep 10, upTo 5) left %d and %d", len(r.msgs), len(o.msgs))
	}
	r.Give(&o, RecycleCap, RecycleCap)
	if len(o.msgs) != 5 {
		t.Fatalf("Give moved spares the giver keeps")
	}
	var nilR *Recycler
	if m := nilR.Message(); m == nil || !reflect.ValueOf(*m).IsZero() {
		t.Fatal("a nil Recycler did not hand out a fresh message")
	}
	if _, pooled := nilR.Buf(8); pooled {
		t.Fatal("a nil Recycler handed out a class buffer")
	}
}

// TestReleaseTwicePanicsUnderPoison: the single-owner rule made
// executable in the msgpoison build; the recycling build just zeroes.
func TestReleaseTwicePanicsUnderPoison(t *testing.T) {
	if !msgPoison {
		t.Skip("recycling build: Release zeroes and keeps")
	}
	var r Recycler
	m := r.Message()
	r.Release(m)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release did not panic")
		}
	}()
	r.Release(m)
}
