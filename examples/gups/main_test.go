package main

// Example pins the program's whole output: it runs on the deterministic
// simulator, so every figure it prints is reproducible.
func Example() {
	main()
	// Output:
	// GUPS: 8 ranks, 500 updates/rank, window 8
	//
	// mode           Kups/s    sim elapsed
	// pgas           5544.6      721.423µs
	// agas-sw        3929.5        1.018ms
	// agas-nm        5545.5      721.308µs
	//
	// table checksums (must match — translation never changes semantics):
	//   mode 0: 0000000000000830
	//   mode 1: 0000000000000830
	//   mode 2: 0000000000000830
	// all modes agree ✓
}
