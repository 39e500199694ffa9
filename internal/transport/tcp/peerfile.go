package tcp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"mcbnet/internal/mcb"
)

// PeerSpec names one processor group: the peer runs processors [Lo, Hi).
type PeerSpec struct {
	Name string `json:"name"`
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"`
}

// CutSpec declares a permanent link loss on a broadcast channel, starting at
// the given cycle. It maps onto the fault plane as a scripted outage that
// never closes, which is exactly what lets RetryPolicy.DegradeOnOutage drop
// the channel and finish the run on the k' < k survivors, unmodified over a
// real socket.
type CutSpec struct {
	Ch   int   `json:"ch"`
	From int64 `json:"from"`
}

// PeerFile is the JSON group configuration cmd/mcbpeer loads: who the
// sequencer is, which peer owns which processors, and any declared channel
// cuts. Example:
//
//	{
//	  "job": "sort-demo",
//	  "sequencer": "127.0.0.1:7700",
//	  "p": 8, "k": 3,
//	  "peers": [
//	    {"name": "a", "lo": 0, "hi": 2},
//	    {"name": "b", "lo": 2, "hi": 4},
//	    {"name": "c", "lo": 4, "hi": 6},
//	    {"name": "d", "lo": 6, "hi": 8}
//	  ],
//	  "cut_channels": [{"ch": 2, "from": 100}]
//	}
//
// With failover, "sequencer" generalizes to an ordered candidate list:
//
//	"sequencers": ["127.0.0.1:7700", "127.0.0.1:7701"]
//
// Epoch e of a session is served by candidate e mod len(sequencers); the
// single-"sequencer" form is still accepted and means a one-element list
// (whose groups stay at epoch 0 forever — no behavior change).
type PeerFile struct {
	Job string `json:"job"`
	// Sequencer is the legacy single-address form. If Sequencers is also set,
	// Sequencer must equal Sequencers[0].
	Sequencer string `json:"sequencer,omitempty"`
	// Sequencers is the ordered failover candidate list; index 0 is the
	// epoch-0 (initial) sequencer.
	Sequencers  []string   `json:"sequencers,omitempty"`
	P           int        `json:"p"`
	K           int        `json:"k"`
	Peers       []PeerSpec `json:"peers"`
	CutChannels []CutSpec  `json:"cut_channels,omitempty"`
}

// Candidates returns the normalized ordered sequencer candidate list:
// Sequencers if present, else the single legacy Sequencer, with surrounding
// whitespace trimmed. Call Validate first; Candidates does not re-check.
func (pf *PeerFile) Candidates() []string {
	src := pf.Sequencers
	if len(src) == 0 && pf.Sequencer != "" {
		src = []string{pf.Sequencer}
	}
	out := make([]string, 0, len(src))
	for _, addr := range src {
		if addr = strings.TrimSpace(addr); addr != "" {
			out = append(out, addr)
		}
	}
	return out
}

// LoadPeerFile reads and validates a peer file: the peer ranges must
// partition [0, P) exactly (no gaps, no overlaps).
func LoadPeerFile(path string) (*PeerFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var pf PeerFile
	if err := json.Unmarshal(b, &pf); err != nil {
		return nil, fmt.Errorf("tcp: peer file %s: %w", path, err)
	}
	if err := pf.Validate(); err != nil {
		return nil, fmt.Errorf("tcp: peer file %s: %w", path, err)
	}
	return &pf, nil
}

// Validate checks the group shape.
func (pf *PeerFile) Validate() error {
	cands := pf.Candidates()
	if len(cands) == 0 {
		return fmt.Errorf("no sequencer address")
	}
	if len(pf.Sequencers) > 0 && len(cands) != len(pf.Sequencers) {
		return fmt.Errorf("sequencer candidate list has empty entries")
	}
	if pf.Sequencer != "" && len(pf.Sequencers) > 0 && strings.TrimSpace(pf.Sequencer) != cands[0] {
		return fmt.Errorf("sequencer %q conflicts with sequencers[0] %q (set one, or make them agree)", pf.Sequencer, cands[0])
	}
	seenSeq := map[string]bool{}
	for _, addr := range cands {
		if seenSeq[addr] {
			return fmt.Errorf("duplicate sequencer candidate %q", addr)
		}
		seenSeq[addr] = true
	}
	if pf.P < 1 || pf.K < 1 || pf.K > pf.P {
		return fmt.Errorf("bad shape p=%d k=%d", pf.P, pf.K)
	}
	if len(pf.Peers) == 0 {
		return fmt.Errorf("no peers")
	}
	specs := append([]PeerSpec(nil), pf.Peers...)
	sort.Slice(specs, func(i, j int) bool { return specs[i].Lo < specs[j].Lo })
	seen := map[string]bool{}
	next := 0
	for _, sp := range specs {
		if sp.Name == "" {
			return fmt.Errorf("peer with empty name")
		}
		if seen[sp.Name] {
			return fmt.Errorf("duplicate peer name %q", sp.Name)
		}
		seen[sp.Name] = true
		if sp.Lo != next || sp.Hi <= sp.Lo {
			return fmt.Errorf("peer ranges must partition [0, %d): %q covers [%d, %d) after %d", pf.P, sp.Name, sp.Lo, sp.Hi, next)
		}
		next = sp.Hi
	}
	if next != pf.P {
		return fmt.Errorf("peer ranges cover [0, %d), want [0, %d)", next, pf.P)
	}
	for _, cut := range pf.CutChannels {
		if cut.Ch < 0 || cut.Ch >= pf.K {
			return fmt.Errorf("cut channel %d outside [0, %d)", cut.Ch, pf.K)
		}
	}
	return nil
}

// Find returns the spec for the named peer, or nil.
func (pf *PeerFile) Find(name string) *PeerSpec {
	for i := range pf.Peers {
		if pf.Peers[i].Name == name {
			return &pf.Peers[i]
		}
	}
	return nil
}

// Outages renders the declared channel cuts as permanent scripted outages
// for a FaultPlan.
func (pf *PeerFile) Outages() []mcb.Outage {
	out := make([]mcb.Outage, 0, len(pf.CutChannels))
	for _, cut := range pf.CutChannels {
		out = append(out, mcb.Outage{Ch: cut.Ch, From: cut.From, To: math.MaxInt64})
	}
	return out
}
