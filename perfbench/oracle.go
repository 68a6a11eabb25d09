package main

import (
	_ "embed"
	"encoding/json"
	"strconv"
)

// oracle.json holds the outputs recorded for the default seed (1) and
// for one held-out seed (7), per workload: the pipeline's precision,
// reduction rate, risk and cardinality per distance, the hashes of the
// 14 rendered experiment tables, and the served fixture's risk per
// distance and re-identification count. Re-record with -record after a
// change that is meant to move a result.
//
//go:embed oracle.json
var oracleJSON []byte

func recordedOracle(workload string, seed uint64) (json.RawMessage, bool) {
	var all map[string]map[string]json.RawMessage
	if err := json.Unmarshal(oracleJSON, &all); err != nil {
		return nil, false
	}
	v, ok := all[workload][strconv.FormatUint(seed, 10)]
	return v, ok
}
