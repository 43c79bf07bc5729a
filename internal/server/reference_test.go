package server

// The /admit codec that codec.go replaced, kept as the oracle: the handler's
// encoding/json decode (a json.RawMessage pass, then an Unmarshal into one
// request or a batch) and its json.Encoder replies, as they were. The
// differential tests hold the new decoder to the same requests and the new
// appender to the same bytes; referenceAdmitHandler serves whole POSTs the
// old way for TestAdmitHandlerMatchesReference.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"edgerep/internal/instrument"
)

// referenceDecode is the old handler's decode of a body.
func referenceDecode(body io.Reader) ([]AdmitRequest, bool, error) {
	var raw json.RawMessage
	if err := json.NewDecoder(body).Decode(&raw); err != nil {
		return nil, false, fmt.Errorf("decode request: %v", err)
	}
	var reqs []AdmitRequest
	single := false
	if len(raw) > 0 && raw[0] == '[' {
		if err := json.Unmarshal(raw, &reqs); err != nil {
			return nil, false, fmt.Errorf("decode batch: %v", err)
		}
	} else {
		var one AdmitRequest
		if err := json.Unmarshal(raw, &one); err != nil {
			return nil, false, fmt.Errorf("decode request: %v", err)
		}
		reqs = []AdmitRequest{one}
		single = true
	}
	return reqs, single, nil
}

// referenceEncode is the old handler's reply encoding.
func referenceEncode(w io.Writer, resps []AdmitResponse, single bool) error {
	enc := json.NewEncoder(w)
	if single {
		return enc.Encode(resps[0])
	}
	return enc.Encode(resps)
}

// referenceAdmitHandler is the old admitHandler over referenceDecode and
// referenceEncode.
func (s *Server) referenceAdmitHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	reqs, single, err := referenceDecode(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(reqs) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	for _, req := range reqs {
		if err := s.CheckTerm(req.Term); err != nil {
			s.referenceWriteTermFence(w, reqs, single)
			return
		}
	}
	resps, status, err := s.dispatch(reqs, new(admitScratch))
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := referenceEncode(w, resps, single); err != nil {
		return
	}
}

// referenceWriteTermFence is the old writeTermFence.
func (s *Server) referenceWriteTermFence(w http.ResponseWriter, reqs []AdmitRequest, single bool) {
	cur := s.Term()
	resps := make([]AdmitResponse, len(reqs))
	for i, req := range reqs {
		resps[i] = AdmitResponse{
			Query:   req.Query,
			AtSec:   req.AtSec,
			Reason:  instrument.ReasonLeaderFailover,
			Dataset: -1,
			Node:    -1,
			Term:    cur,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	if err := referenceEncode(w, resps, single); err != nil {
		return
	}
}
