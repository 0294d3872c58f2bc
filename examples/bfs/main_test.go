package main

// Example pins the program's whole output: it runs on the deterministic
// simulator, so every figure it prints is reproducible.
func Example() {
	main()
	// Output:
	// graph: 4000 vertices, 32000 edges (zipf-skewed degrees)
	// static         31995 edges in   7 levels      1641.3 KTEPS
	// distances match sequential reference ✓
	// rebalanced: 48 blocks migrated by heat
	// rebalanced     31995 edges in   7 levels      1633.6 KTEPS
	// distances still correct after migration ✓
}
