package streammine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"pmihp/internal/rules"
)

// The glue between the re-mine loop and the serving layer: a
// ReplayConfig.Publish hook that installs each step's rule set as a new
// serving generation of a running pmihp-serve daemon. An embedded
// deployment passes its own hook that calls serve.Server.Swap.

// NewSwapPublisher POSTs each step's rules to a serve daemon's
// /admin/swap endpoint. base is the daemon's base URL (e.g.
// "http://localhost:8080"); client nil means http.DefaultClient.
func NewSwapPublisher(client *http.Client, base string) func(step int, ws []rules.WordRule) error {
	if client == nil {
		client = http.DefaultClient
	}
	base = strings.TrimRight(base, "/")
	return func(step int, ws []rules.WordRule) error {
		body, err := json.Marshal(ws)
		if err != nil {
			return fmt.Errorf("streammine: encoding step %d rules: %w", step, err)
		}
		resp, err := client.Post(base+"/admin/swap", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("streammine: swapping step %d: %w", step, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return fmt.Errorf("streammine: swapping step %d: %s: %s", step, resp.Status, bytes.TrimSpace(msg))
		}
		return nil
	}
}
