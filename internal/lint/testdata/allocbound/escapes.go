// Package allocbound is the fixture corpus for the escape-budget gate: a
// package with known, deliberate heap escapes. The allocbound tests collect
// its compiler diagnostics, round-trip them through the budget encoding,
// and prove that removing an entry from the budget surfaces the escape as
// a lint failure carrying the compiler's reason string.
package allocbound

// Leak returns the address of a local: the classic "moved to heap".
func Leak() *int {
	v := 42
	return &v
}

// Box boxes an int into an interface: "escapes to heap".
func Box(n int) any {
	return n
}

// Grow returns a slice whose backing array must live past the frame.
func Grow(n int) []int {
	s := make([]int, n)
	return s
}

// Stay keeps everything on the stack: contributes no budget entries.
func Stay(n int) int {
	buf := [8]int{}
	for i := range buf {
		buf[i] = n
	}
	return buf[0]
}

// Counter's methods and closures are budgeted under the method's name.
type Counter struct{ n int }

// Box boxes the count from a pointer-receiver method.
func (c *Counter) Box() any {
	return c.n
}

// Adder returns a closure over a local: the local moves to the heap inside
// the method that declares it.
func (c Counter) Adder() func() int {
	sum := c.n
	return func() int {
		sum++
		return sum
	}
}
