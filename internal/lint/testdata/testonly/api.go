// Package testonly is the golden API package for the testonly check: its
// declarations are roots, so nothing here is flagged, and what it calls
// in packages a and b counts as used.
package testonly

import (
	"encoding/json"
	"fmt"
	"net/http"

	"memca/internal/lint/testdata/testonly/a"
	"memca/internal/lint/testdata/testonly/b"
)

// Public is a root-package name nothing else calls: not flagged.
func Public() string {
	var s a.Shape = a.Square{Side: 2}
	http.Handle("/", a.Handler{})
	return fmt.Sprint(s.Area(), a.Red, b.Run())
}

// Configure writes every field of a.Config the check must see as set.
func Configure(data []byte) (a.Config, a.Pair, error) {
	c := a.Config{Keyed: 1}
	c.Counter++
	p := &c.Pointed
	*p = 2
	c.Indexed[0] = 3
	err := json.Unmarshal(data, &c)
	return c, a.Pair{1, 2}, err
}
