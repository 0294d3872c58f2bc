package main

// Example pins the program's whole output: it runs on the deterministic
// simulator, so every figure it prints is reproducible.
func Example() {
	main()
	// Output:
	// 1-D heat, 4096 cells over 8 localities; rank 0 is 8x slower
	//
	// static         866.4 µs/step
	// adaptive       252.8 µs/step  (3.43x speedup)
	//
	// heat conserved and identical in both runs (sum=1.000000000) ✓
}
