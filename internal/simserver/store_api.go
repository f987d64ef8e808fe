package simserver

import (
	"net/http"

	"repro/internal/resultstore"
)

// storeManifest is the GET /v1/store/manifest body: the anti-entropy
// exchange unit. State rides along for operators reading a peer's
// manifest; replicators read only the entries.
type storeManifest struct {
	State   string                      `json:"state"`
	Entries []resultstore.ManifestEntry `json:"entries"`
}

// handleManifest is GET /v1/store/manifest: the compact key list of
// everything the local tiers can serve. Replicators read it to find
// the keys they are missing and pull them over GET /v1/result/{key};
// the body stays small (tens of bytes per entry) so a full fleet
// exchange costs less than one simulation.
func (s *Server) handleManifest(w http.ResponseWriter, _ *http.Request) {
	entries := s.store.ManifestLocal()
	if entries == nil {
		entries = []resultstore.ManifestEntry{}
	}
	writeJSON(w, http.StatusOK, storeManifest{State: s.store.State(), Entries: entries})
}
