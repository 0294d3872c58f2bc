package runtime

import "testing"

// FuzzParseMode: any text either errors or parses to a mode whose String
// parses back to the same mode, and nothing panics. The seeds are the
// three names, the numeric form String prints for other values (which
// does not parse), and the near misses that once parsed (text after that
// form, a space inside it).
func FuzzParseMode(f *testing.F) {
	for _, s := range []string{"pgas", "agas-sw", "agas-nm", "mode(7)", "mode(255)",
		"mode(5)xyz", "mode( 7)", "mode(1) ", "mode(1)", "mode(007)", "mode(256)", "", "PGAS"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMode(s)
		if err != nil {
			return
		}
		if m.String() != s {
			t.Fatalf("ParseMode(%q) = %v, which prints %q", s, m, m.String())
		}
		if back, err := ParseMode(m.String()); err != nil || back != m {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", m.String(), back, err, m)
		}
	})
}

// FuzzParseEngine: the same round trip for engine names.
func FuzzParseEngine(f *testing.F) {
	for _, s := range []string{"des", "go", "DES", "go ", "goroutine", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := ParseEngine(s)
		if err != nil {
			return
		}
		if back, err := ParseEngine(e.String()); err != nil || back != e {
			t.Fatalf("ParseEngine(%q) = %v; %q parses to %v, %v", s, e, e.String(), back, err)
		}
	})
}
