// Recovery invariant: a recovered engine must be FIELD-IDENTICAL to a
// never-crashed engine fed the same input sequence — not merely "close", and
// not merely passing the solution invariants. CheckRecovered compares the
// two engines' canonical state dumps (online.EngineState, via StateDump())
// one field at a time so a divergence names the first field that differs
// instead of reporting an opaque struct mismatch.
//
// The comparison is reflective over any struct type rather than typed to
// online.EngineState because the online package's own tests call into
// invariant — a typed signature would close an import cycle. CheckFailover
// reuses it for the standby's hand-off state.
package invariant

import (
	"fmt"
	"reflect"
)

// CheckRecovered verifies that recovered — typically the canonical state
// dump of an engine rebuilt by online.Recover from a journal — is
// field-identical to reference, the dump of an engine that processed the
// same inputs without ever crashing. Both must be pointers to the same
// struct type. It returns nil when every field matches, and an error naming
// the first differing field otherwise.
func CheckRecovered(recovered, reference any) error {
	gv := reflect.ValueOf(recovered)
	wv := reflect.ValueOf(reference)
	if gv.Kind() != reflect.Pointer || wv.Kind() != reflect.Pointer || gv.IsNil() || wv.IsNil() {
		return fmt.Errorf("invariant: CheckRecovered wants non-nil struct pointers, got %T and %T", recovered, reference)
	}
	gv, wv = gv.Elem(), wv.Elem()
	if gv.Type() != wv.Type() || gv.Kind() != reflect.Struct {
		return fmt.Errorf("invariant: CheckRecovered wants matching struct types, got %T and %T", recovered, reference)
	}
	ty := gv.Type()
	for i := 0; i < ty.NumField(); i++ {
		if !ty.Field(i).IsExported() {
			continue
		}
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			return fmt.Errorf("invariant: recovered state diverges at %s: recovered %+v, reference %+v",
				ty.Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	return nil
}
