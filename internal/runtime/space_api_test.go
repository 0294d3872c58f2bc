package runtime

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"nmvgas/internal/gas"
	"nmvgas/internal/parcel"
)

// TestPGASTranslateIsTheHome: under pgas an address's owner is its
// encoded home, whatever the block and offset.
func TestPGASTranslateIsTheHome(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: PGAS, Engine: EngineDES})
	s := w.Locality(1).space
	f := func(homeRaw uint8, block, off uint32) bool {
		home := int(homeRaw % 4)
		return s.Translate(gas.New(home, gas.BlockID(block), off&(gas.MaxBlockSize-1))) == home
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPGASTranslateRejectsOutOfWorld: an address whose home lies outside
// the world fails the world; the last in-world rank still translates.
func TestPGASTranslateRejectsOutOfWorld(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: PGAS, Engine: EngineDES})
	s := w.Locality(1).space
	if got := s.Translate(gas.New(3, 1, 0)); got != 3 {
		t.Fatalf("in-world address translated to %d, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("translating an address homed outside the world did not fail")
		}
	}()
	s.Translate(gas.New(4, 1, 0))
}

func TestParseModeRoundTrip(t *testing.T) {
	tests := []struct {
		in      string
		want    Mode
		wantErr bool
	}{
		{in: "pgas", want: PGAS},
		{in: "agas-sw", want: AGASSW},
		{in: "agas-nm", want: AGASNM},
		{in: "mode(7)", wantErr: true},
		{in: "PGAS", wantErr: true},
		{in: "agas", wantErr: true},
		{in: "", wantErr: true},
		{in: "mode(x)", wantErr: true},
		{in: "mode(5)xyz", wantErr: true},
		{in: "mode( 7)", wantErr: true},
		{in: "mode(1) ", wantErr: true},
	}
	for _, tc := range tests {
		got, err := ParseMode(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseMode(%q): want error, got %v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseMode(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Every mode with an address space round-trips through its String.
	for m := PGAS; m <= AGASNM; m++ {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("round-trip %v: got %v, %v", m, got, err)
		}
	}
}

func TestParseEngineRoundTrip(t *testing.T) {
	tests := []struct {
		in      string
		want    EngineKind
		wantErr bool
	}{
		{in: "des", want: EngineDES},
		{in: "go", want: EngineGo},
		{in: "DES", wantErr: true},
		{in: "", wantErr: true},
		{in: "goroutine", wantErr: true},
	}
	for _, tc := range tests {
		got, err := ParseEngine(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseEngine(%q): want error, got %v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseEngine(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, e := range allEngines {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("round-trip %v: got %v, %v", e, got, err)
		}
	}
}

func TestSpacesEnumeration(t *testing.T) {
	sps := Spaces()
	if len(sps) != len(allModes) {
		t.Fatalf("Spaces() returned %d specs, want %d", len(sps), len(allModes))
	}
	for i, sp := range sps {
		if sp.Mode != allModes[i] {
			t.Errorf("spec %d has mode %v, want %v", i, sp.Mode, allModes[i])
		}
		if sp.String() != sp.Mode.String() {
			t.Errorf("spec %v string %q != mode string %q", sp.Mode, sp.String(), sp.Mode.String())
		}
		if sp.Caps != SpaceFor(sp.Mode).Caps {
			t.Errorf("spec %v caps disagree with SpaceFor", sp.Mode)
		}
	}
	// Capability sanity: exactly the PGAS baseline is static, exactly the
	// network-managed space has NIC translation.
	for _, sp := range sps {
		wantMig := sp.Mode != PGAS
		if sp.Caps.Migration != wantMig {
			t.Errorf("%v: Migration=%v, want %v", sp.Mode, sp.Caps.Migration, wantMig)
		}
		if got := sp.Caps.NICTranslation; got != (sp.Mode == AGASNM) {
			t.Errorf("%v: NICTranslation=%v", sp.Mode, got)
		}
	}
}

func TestConfigRequireMigration(t *testing.T) {
	_, err := NewWorld(Config{Ranks: 2, RequireMigration: true})
	if err == nil {
		t.Fatal("static space accepted a config that requires migration")
	}
	if !strings.Contains(err.Error(), "migration") {
		t.Fatalf("rejection does not mention migration: %v", err)
	}
	for _, sp := range Spaces() {
		if !sp.Caps.Migration {
			continue
		}
		w, err := NewWorldFor(sp, Config{Ranks: 2, RequireMigration: true})
		if err != nil {
			t.Fatalf("%v: migrating space rejected RequireMigration: %v", sp, err)
		}
		if !w.Caps().Migration {
			t.Fatalf("%v: world caps lost Migration", sp)
		}
		w.Stop()
	}
}

// TestAbortMigrateClearsRoute exercises the one strategy hook the normal
// protocol never reaches: undoing BeginMigrate's route-to-self.
func TestAbortMigrateClearsRoute(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES})
	echo := w.Register("echo", func(c *Ctx) { c.Continue(c.P.Payload) })
	w.Start()
	lay, err := w.AllocLocal(0, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := lay.BlockAt(0).Block()

	sp := w.Locality(0).space
	sp.BeginMigrate(b)
	if o, ok := w.Fabric().NIC(0).Route(b); !ok || o != 0 {
		t.Fatalf("BeginMigrate did not install route-to-self: (%d, %v)", o, ok)
	}
	sp.AbortMigrate(b)
	if _, ok := w.Fabric().NIC(0).Route(b); ok {
		t.Fatal("AbortMigrate left the route-to-self installed")
	}
	// The block never moved; traffic must still resolve normally.
	v := w.MustWait(w.Proc(1).Call(lay.BlockAt(0), echo, []byte{42}))
	if len(v) != 1 || v[0] != 42 {
		t.Fatalf("post-abort call broken: %v", v)
	}
}

// TestGoEngineMigrationChurnRace hammers the goroutine engine with
// concurrent waited calls and migrations across every migrating address
// space. Run under -race it checks the strategy layer introduced no
// unsynchronized state; the final counters check it lost no work.
func TestGoEngineMigrationChurnRace(t *testing.T) {
	if testing.Short() {
		t.Skip("migration churn stress skipped in -short")
	}
	for _, sp := range Spaces() {
		if !sp.Caps.Migration {
			continue
		}
		sp := sp
		t.Run(sp.String(), func(t *testing.T) {
			const (
				ranks   = 4
				nblocks = 16
				calls   = 150
				migs    = 40
			)
			// Action bodies run on the locality actor, one at a time: block
			// data access is serialized per locality.
			w, err := NewWorldFor(sp, Config{Ranks: ranks, Engine: EngineGo})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Stop()
			incr := w.Register("incr", func(c *Ctx) {
				d := c.Local(c.P.Target)
				v := parcel.U64(d, 0)
				copy(d, parcel.PutU64(nil, v+1))
				c.Continue(nil)
			})
			w.Start()
			lay, err := w.AllocCyclic(0, 64, nblocks)
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for r := 0; r < ranks; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000 + r)))
					for i := 0; i < calls; i++ {
						d := uint32(rng.Intn(nblocks))
						w.MustWait(w.Proc(r).Call(lay.BlockAt(d), incr, nil))
						if i%10 == 9 {
							w.MustWait(w.Proc(r).Get(lay.BlockAt(d), 8))
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(99))
				for i := 0; i < migs; i++ {
					d := uint32(rng.Intn(nblocks))
					w.MustWait(w.Proc(0).Migrate(lay.BlockAt(d), rng.Intn(ranks)))
				}
			}()
			wg.Wait()

			var total uint64
			for d := uint32(0); d < nblocks; d++ {
				v := w.MustWait(w.Proc(0).Get(lay.BlockAt(d), 8))
				total += parcel.U64(v, 0)
			}
			if want := uint64(ranks * calls); total != want {
				t.Fatalf("lost updates under churn: counted %d, want %d", total, want)
			}
		})
	}
}
