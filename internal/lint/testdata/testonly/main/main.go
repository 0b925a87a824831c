// Command main is the golden module's binary: its main function is the
// root that reaches the API package.
package main

import (
	"fmt"

	"memca/internal/lint/testdata/testonly"
)

func main() {
	c, p, err := testonly.Configure(nil)
	st, export, _ := testonly.Record()
	fmt.Println(testonly.Public(), c.Keyed, p.X, p.Y, err, st.Code, export)
}
