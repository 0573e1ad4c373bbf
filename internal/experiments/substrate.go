package experiments

import (
	"context"
	"fmt"
	"time"

	"dstress/internal/risk"
	"dstress/internal/vertex"
)

// OTSubstrateSetup measures the pairwise OT substrate (§5.3's OT-extension
// optimization taken to deployment scale): standing up an IKNP-provisioned
// deployment pays one base-OT handshake per ordered node pair that shares a
// GMW session, independent of how many block sessions the pair co-occurs
// in. The table compares the measured handshake count against what the
// retired per-session bootstrap paid (every session of k+1 members ran
// k(k+1) ordered-pair handshakes), alongside the wall-clock setup phase.
func OTSubstrateSetup(o Options) *Table {
	cfg := riskCfg()
	n, d, _ := o.e2e()
	t := &Table{
		ID:     "E13",
		Title:  fmt.Sprintf("§5.3: pairwise OT substrate — deployment open, IKNP (N=%d, D=%d)", n, d),
		Header: []string{"block", "sessions", "handshakes", "per-session equiv", "saving", "setup"},
	}
	for _, bs := range o.blockSizes() {
		en, _, err := e2eNetwork(n, d)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		prog := risk.ENProgram(cfg, 1e9, 0.1)
		graph, err := risk.ENGraph(en, cfg, d)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		start := time.Now()
		rt, err := vertex.New(context.Background(), vertex.Config{
			Group: o.group(), K: bs - 1, Alpha: 0.5, OTMode: vertex.OTIKNP,
		}, prog, graph)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("block %d: %v", bs, err))
			continue
		}
		setup := time.Since(start)
		handshakes := rt.BaseOTHandshakes()
		sessions := graph.N() + 1 // one per vertex block plus the aggregation block
		perSession := int64(sessions * bs * (bs - 1))
		t.Add(fmt.Sprint(bs), fmt.Sprint(sessions),
			fmt.Sprint(handshakes), fmt.Sprint(perSession),
			fmt.Sprintf("%.1fx", float64(perSession)/float64(handshakes)),
			durStr(setup))
		t.SetupMS += float64(setup) / float64(time.Millisecond)
		t.BaseOTHandshakes += handshakes
	}
	t.Notes = append(t.Notes,
		"handshakes = ordered node pairs sharing ≥1 session; a pair in B blocks bootstraps once, not B times",
		"per-session equiv = sessions × k(k+1), the public-key cost before the substrate",
		"each handshake is λ = 128 Chou–Orlandi base OTs per direction; sessions derive independent extension streams via AES(seed, H(tag))")
	return t
}
