// Package a is a golden file for the testonly check.
package a

import (
	"errors"
	"net/http"
)

// Used is called from package b: a cross-package use.
func Used() error {
	if debugged() {
		return ErrBad{}
	}
	return errors.New("a")
}

func debugged() bool { return false }

func helper() int { return 1 } // want `func helper has no non-test use`

type onlyTests struct{} // want `type onlyTests has no non-test use`

var debugLevel = 3 // want `var debugLevel has no non-test use`

const unusedLimit = 10 // want `const unusedLimit has no non-test use`

// Shape is called through by the api package, but only for Area.
type Shape interface {
	Area() float64
	Name() string
}

// Square implements Shape.
type Square struct{ Side float64 }

// Area is used through Shape: not flagged.
func (s Square) Area() float64 { return s.Side * s.Side }

// Name implements Shape, but no code calls Shape.Name.
func (s Square) Name() string { return "square" } // want `method Square\.Name has no non-test use`

// Perimeter is named only by tests.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `method Square\.Perimeter has no non-test use`

// Color is printed with fmt.
type Color int

// The api package prints only Red. Green and Blue stay: the group numbers
// its members with iota, so deleting Green would renumber Blue.
const (
	Red Color = iota + 1
	Green
	Blue
)

// The members of a group nothing uses are all flagged.
const (
	lowMode  = iota // want `const lowMode has no non-test use`
	highMode        // want `const highMode has no non-test use`
)

// String is reached through fmt.Stringer.
func (c Color) String() string { return "red" }

// ErrBad is returned as an error.
type ErrBad struct{}

// Error is reached through the error interface.
func (ErrBad) Error() string { return "bad" }

// Handler is registered with net/http.
type Handler struct{}

// ServeHTTP is reached through http.Handler.
func (Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {}

// Kept stays although only a test calls it.
//
//memca:keep golden case for a keep with a reason
func Kept() {}

// NoReason carries a keep without a reason.
//
//memca:keep
func NoReason() {} // want `needs a reason` `func NoReason has no non-test use`

// Config is written field by field by the api package.
type Config struct {
	Keyed   int
	Counter int
	Pointed int
	Indexed [2]int
	Decoded string `json:"decoded"`
	Never   int    // want `field Config\.Never is never set outside tests`
	// KeptField is read by tests only.
	KeptField int //memca:keep golden case for a kept field
	hidden    int
}

// Pair is built positionally.
type Pair struct{ X, Y int }
