package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestReplayGolden pins the controller-replay experiments to SHA-256
// digests of their output: the report text, the JSON of the returned
// Results (full float precision, which the report's rounding hides), and
// the artifact files; an artifact missing from want must not be written.
// fig2 and fig5 are pure controller replays; fig12's perf-overhead point is
// one too, and its ECC storm plus mid-run rank kill also drives the health
// monitor's retirement migrations into the metrics and ledger. A change to
// the replayed stream, the sampling round boundaries, the latency
// accounting or the controller's counters shows up as a digest mismatch.
func TestReplayGolden(t *testing.T) {
	const faultSpec = "seed=7;storm:ch1/rk2:at=90m,rate=2000,dur=60s;kill:ch0/rk0:at=3h"
	cases := []struct {
		id, faults string
		want       map[string]string // output name -> hex SHA-256
	}{
		{"fig2", "", map[string]string{
			"report":      "438e787473cbf872a9c7c280c8d02ac4139b88ef91903874d1ef2dc2c2a8e472",
			"results":     "0704ec044b7e088c508939adc671e9e3566e5b40c2b81eaeee0612d95d62f56e",
			"metrics.csv": "c97a8fe18d63ce58429e9a57eddbd4906f4f24af7512fdf10986643a3ce335dd",
		}},
		{"fig5", "", map[string]string{
			"report":      "8b01d7362fc1f7be10289db2580948140e2902c4caff4e9634cc2577da86daf7",
			"results":     "8ab31d3f9eb288c5c46d5a51e9a4b763ff4f67af104f70916f542ace58c68efd",
			"metrics.csv": "c97a8fe18d63ce58429e9a57eddbd4906f4f24af7512fdf10986643a3ce335dd",
		}},
		{"fig12", faultSpec, map[string]string{
			"report":      "cb9596b9fd1e978958e6f46022f48248b5260b6cb91584add4618c93c365722d",
			"results":     "188214f1e7254fe26682d398ac0296347cb6db0c5c3430b386138cc2e337825d",
			"metrics.csv": "dbcb273a1ed49caa705b4835c3d653e821d2aa46a674d901ef8c63cb2c39210c",
			"ledger.json": "4dde40a0a8d8bfcb7a079e398124ffcc1f6cd5efb4dd227acbdf8b5d7c02a0fb",
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			dir := t.TempDir()
			var out bytes.Buffer
			res := RunAll(runnersByID(t, c.id), Options{
				Quick: true, Seed: 1, Out: &out, FaultSpec: c.faults,
				MetricsPath: filepath.Join(dir, "metrics.csv"),
				LedgerPath:  filepath.Join(dir, "ledger.json"),
			}, 1)
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{"report": sha256Hex(out.Bytes()), "results": sha256Hex(js)}
			for _, name := range []string{"metrics.csv", "ledger.json"} {
				if b, err := os.ReadFile(filepath.Join(dir, name)); err == nil {
					got[name] = sha256Hex(b)
				}
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("output digests differ\n got: %v\nwant: %v", got, c.want)
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
