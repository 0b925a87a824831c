// Package workload emulates the RUBBoS benchmark's client population: N
// concurrent users navigating a news site through a Markov chain of page
// transitions with exponential think times, closed-loop against the
// queueing network, with TCP retransmission on drops — the legitimate
// traffic whose tail latency the MemCA attack amplifies.
package workload

import (
	"fmt"

	"memca/internal/queueing"
)

// PageSpec names one page type and binds it to a queueing request class.
type PageSpec struct {
	// Name is the RUBBoS interaction name.
	Name string
	// Class indexes the network's request classes.
	Class int
}

// Profile is a browsing model: pages, a Markov transition matrix, and the
// initial page distribution.
type Profile struct {
	// Pages lists the page types.
	Pages []PageSpec
	// Transitions[i][j] is the probability of visiting page j after page
	// i. Every row must sum to 1 (±1e-9).
	Transitions [][]float64
	// Initial is the distribution over the first page of a session; it
	// must sum to 1.
	Initial []float64
}

// Validate reports the first profile error, or nil. numClasses bounds the
// class indices.
func (p Profile) Validate(numClasses int) error {
	if len(p.Pages) == 0 {
		return fmt.Errorf("workload: profile needs at least one page")
	}
	for i, pg := range p.Pages {
		if pg.Class < 0 || pg.Class >= numClasses {
			return fmt.Errorf("workload: page %d (%s) class %d out of range [0,%d)", i, pg.Name, pg.Class, numClasses)
		}
	}
	if len(p.Transitions) != len(p.Pages) {
		return fmt.Errorf("workload: transition matrix has %d rows, want %d", len(p.Transitions), len(p.Pages))
	}
	for i, row := range p.Transitions {
		if len(row) != len(p.Pages) {
			return fmt.Errorf("workload: transition row %d has %d columns, want %d", i, len(row), len(p.Pages))
		}
		sum := 0.0
		for j, v := range row {
			if v < 0 {
				return fmt.Errorf("workload: transition[%d][%d] is negative", i, j)
			}
			sum += v
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			return fmt.Errorf("workload: transition row %d sums to %v, want 1", i, sum)
		}
	}
	if len(p.Initial) != len(p.Pages) {
		return fmt.Errorf("workload: initial distribution has %d entries, want %d", len(p.Initial), len(p.Pages))
	}
	sum := 0.0
	for i, v := range p.Initial {
		if v < 0 {
			return fmt.Errorf("workload: initial[%d] is negative", i)
		}
		sum += v
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return fmt.Errorf("workload: initial distribution sums to %v, want 1", sum)
	}
	return nil
}

// Class indices of the RUBBoS request mix (see RUBBoSClasses).
const (
	// ClassStatic is served entirely by the web tier.
	ClassStatic = 0
	// ClassServlet reaches the application tier but not the database.
	ClassServlet = 1
	// ClassDBLight is a single-query database interaction.
	ClassDBLight = 2
	// ClassDBHeavy is a multi-join or full-text database interaction.
	ClassDBHeavy = 3
)

// RUBBoSClasses returns the request classes of the RUBBoS mix for a 3-tier
// deployment (depths are tier indices: 0 web, 1 app, 2 db).
func RUBBoSClasses() []queueing.Class {
	return []queueing.Class{
		{Name: "static", Depth: 0, DemandScale: []float64{0.5}},
		{Name: "servlet", Depth: 1, DemandScale: []float64{1, 1}},
		{Name: "db-light", Depth: 2, DemandScale: []float64{1, 1, 1}},
		{Name: "db-heavy", Depth: 2, DemandScale: []float64{1, 1.2, 2}},
	}
}

// RUBBoSProfile returns a browsing model over nine representative RUBBoS
// interactions (the full benchmark has 24; these carry almost all of its
// load). The chain's stationary distribution terminates about 7% of
// requests at the web tier (static), 13% at the app tier and 80% at the
// database (TestRUBBoSStationaryMix).
func RUBBoSProfile() Profile {
	pages := []PageSpec{
		{Name: "StoriesOfTheDay", Class: ClassDBLight},         // 0 (home)
		{Name: "BrowseCategories", Class: ClassServlet},        // 1
		{Name: "BrowseStoriesByCategory", Class: ClassDBLight}, // 2
		{Name: "ViewStory", Class: ClassDBHeavy},               // 3
		{Name: "ViewComment", Class: ClassDBHeavy},             // 4
		{Name: "Search", Class: ClassDBHeavy},                  // 5
		{Name: "Login", Class: ClassServlet},                   // 6
		{Name: "PostComment", Class: ClassDBLight},             // 7
		{Name: "StaticContent", Class: ClassStatic},            // 8
	}
	transitions := [][]float64{
		//  Home  BrCat BrSto View  ViewC Srch  Login Post  Static
		{0.05, 0.25, 0.10, 0.35, 0.00, 0.10, 0.05, 0.00, 0.10}, // Home
		{0.10, 0.05, 0.60, 0.10, 0.00, 0.05, 0.00, 0.00, 0.10}, // BrowseCategories
		{0.05, 0.10, 0.15, 0.55, 0.00, 0.05, 0.00, 0.00, 0.10}, // BrowseStoriesByCategory
		{0.15, 0.05, 0.15, 0.15, 0.30, 0.05, 0.05, 0.05, 0.05}, // ViewStory
		{0.10, 0.05, 0.10, 0.30, 0.20, 0.05, 0.05, 0.10, 0.05}, // ViewComment
		{0.15, 0.10, 0.10, 0.40, 0.05, 0.10, 0.00, 0.00, 0.10}, // Search
		{0.40, 0.10, 0.10, 0.20, 0.00, 0.05, 0.00, 0.10, 0.05}, // Login
		{0.20, 0.05, 0.10, 0.40, 0.15, 0.05, 0.00, 0.00, 0.05}, // PostComment
		{0.30, 0.15, 0.15, 0.25, 0.00, 0.10, 0.05, 0.00, 0.00}, // StaticContent
	}
	initial := []float64{0.6, 0.1, 0.05, 0.1, 0, 0.05, 0.1, 0, 0}
	return Profile{Pages: pages, Transitions: transitions, Initial: initial}
}
