package agas

import "testing"

// FuzzParseCoherence: any text either errors or parses to a policy whose
// String parses back to the same policy (aliases such as "wi" print their
// canonical name), and nothing panics.
func FuzzParseCoherence(f *testing.F) {
	for _, s := range []string{"write-invalidate", "invalidate", "wi", "write-update", "update",
		"wu", "rw-lease", "lease", "coherence(3)", "WI", " wi", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCoherence(s)
		if err != nil {
			return
		}
		if back, err := ParseCoherence(c.String()); err != nil || back != c {
			t.Fatalf("ParseCoherence(%q) = %v; %q parses to %v, %v", s, c, c.String(), back, err)
		}
	})
}
