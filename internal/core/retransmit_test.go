package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"memca/internal/queueing"
)

// TestMaxRetriesZeroIdentity pins the client's one "off" rule at the
// experiment level: an attacked run whose clients may not retry reports
// byte-identically whether retransmission is off through the zero policy
// or through a policy with MaxRetries 0.
func TestMaxRetriesZeroIdentity(t *testing.T) {
	report := func(policy queueing.RetransmitPolicy) []byte {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Duration = 20 * time.Second
		cfg.Warmup = 5 * time.Second
		x, err := newExperiment(cfg, policy)
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Drops == 0 || rep.Retransmissions != 0 || rep.Failures != rep.Drops {
			t.Fatalf("drops %d, retransmissions %d, failures %d: want drops, all of them failures",
				rep.Drops, rep.Retransmissions, rep.Failures)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	off := report(queueing.RetransmitPolicy{})
	noRetries := report(queueing.RetransmitPolicy{RTOMin: time.Second, Backoff: 2, MaxRetries: 0})
	if !bytes.Equal(off, noRetries) {
		t.Errorf("MaxRetries 0 report differs from the zero-policy report:\n%s\nvs\n%s", noRetries, off)
	}
}
