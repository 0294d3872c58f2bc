package metrics

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzValidatePrometheus: the exposition checker (vgasbench's gate on
// the metrics snapshot) returns an error or nil on any bytes and never
// panics. The seeds are the committed exposition, which must validate,
// and its truncations, most of which end inside a sample line or a label
// set.
func FuzzValidatePrometheus(f *testing.F) {
	prom, err := os.ReadFile(filepath.Join("testdata", "world.prom"))
	if err != nil {
		f.Fatal(err)
	}
	if err := ValidatePrometheus(bytes.NewReader(prom)); err != nil {
		f.Fatalf("testdata/world.prom does not validate: %v", err)
	}
	f.Add(prom)
	for _, n := range []int{0, 1, 7, 64, 200, 201, 202, len(prom) / 3, len(prom) / 2, len(prom) - 2, len(prom) - 1} {
		f.Add(prom[:n])
	}
	if i := bytes.IndexByte(prom, '{'); i >= 0 {
		f.Add(prom[:i+1]) // inside the first label set
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		_ = ValidatePrometheus(bytes.NewReader(b))
	})
}
