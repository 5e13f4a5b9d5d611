package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/verify"
)

// Code is the wire-level error taxonomy: every failure the server can
// produce maps onto exactly one code, so clients (and the soak driver)
// can classify outcomes without parsing message text.  The codes mirror
// the library error model one-to-one — the verifier's reject, the
// sandbox's fuel/deadline/trap/panic errors, the cache's compile-panic
// recovery — plus the server's own admission and quota rejections.
type Code string

const (
	// CodeBadRequest covers malformed JSON, unknown languages, missing
	// fields, and argument/signature mismatches.
	CodeBadRequest Code = "bad_request"
	// CodeUnknownTenant rejects a tenant the server has no quota row
	// for (when the default tenant is disabled).
	CodeUnknownTenant Code = "unknown_tenant"
	// CodeNotFound reports an entry function absent from the compiled
	// program, or an /v1/call key that is not resident.
	CodeNotFound Code = "not_found"
	// CodeQueueFull is admission backpressure: the shard's compile
	// queue is past its bound.  Served as 429 with Retry-After.
	CodeQueueFull Code = "queue_full"
	// CodeQuotaConcurrency rejects a compile that would exceed the
	// tenant's concurrent-compile quota.  429 with Retry-After.
	CodeQuotaConcurrency Code = "quota_concurrency"
	// CodeQuotaCodeBytes rejects a compile while the tenant is at its
	// resident-code-bytes quota.  429 with Retry-After (eviction or the
	// tenant's own invalidations clear it).
	CodeQuotaCodeBytes Code = "quota_code_bytes"
	// CodeQuotaFuel rejects a request asking for more fuel than the
	// tenant's per-call cap.
	CodeQuotaFuel Code = "quota_fuel"
	// CodeVerifyReject is the pre-install verifier refusing the
	// generated code.
	CodeVerifyReject Code = "verify_reject"
	// CodeCompileError is a front-end compile failure (parse error,
	// codegen error).
	CodeCompileError Code = "compile_error"
	// CodeCompilePanic is a compile callback panic recovered by the
	// cache.
	CodeCompilePanic Code = "compile_panic"
	// CodeFuelExhausted is generated code running past its step budget.
	CodeFuelExhausted Code = "fuel_exhausted"
	// CodeDeadline is the per-call wall deadline or a client
	// cancellation cutting the simulator short.
	CodeDeadline Code = "deadline"
	// CodeTrapPanic is a runtime-helper trap handler panicking during a
	// call (recovered into a typed error by the sandbox).
	CodeTrapPanic Code = "trap_panic"
	// CodeSimPanic is the simulator itself panicking (recovered; must
	// never happen outside fault injection).
	CodeSimPanic Code = "sim_panic"
	// CodeInjectedFault is a deliberate faultinject error surfacing
	// through the pipeline — the soak driver separates these from
	// failures the stack invented.
	CodeInjectedFault Code = "injected_fault"
	// CodeExecError is any other typed execution failure (decode fault
	// on corrupted code, memory bounds, arity mismatch at call time).
	CodeExecError Code = "exec_error"
	// CodeShuttingDown rejects work arriving after shutdown began.
	CodeShuttingDown Code = "shutting_down"
	// CodeRateLimited rejects a request over the tenant's token-bucket
	// rate (requests/sec with burst).  429 with a jittered Retry-After.
	CodeRateLimited Code = "rate_limited"
	// CodeCircuitOpen fast-fails a compile for a key that has failed
	// repeatedly: the per-key circuit breaker is open and the request
	// never reaches the front end.  503 with Retry-After.
	CodeCircuitOpen Code = "circuit_open"
	// CodeOverloaded is the global load-shedding watermark rejecting
	// low-priority compile traffic while the compile queues are deep.  503
	// with Retry-After.
	CodeOverloaded Code = "overloaded"
)

// APIError is the typed JSON error body: {"error": {...}}.  RetryAfterMS
// is non-zero only for backpressure codes, and doubles as the
// Retry-After header (rounded up to whole seconds).
type APIError struct {
	Code         Code   `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`

	status int
}

func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Status is the HTTP status the error is served with.
func (e *APIError) Status() int {
	if e.status != 0 {
		return e.status
	}
	return http.StatusInternalServerError
}

// apiErr builds an APIError with the canonical status for its code.
func apiErr(code Code, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...), status: statusFor(code)}
}

func statusFor(code Code) int {
	switch code {
	case CodeBadRequest, CodeQuotaFuel:
		return http.StatusBadRequest
	case CodeUnknownTenant:
		return http.StatusForbidden
	case CodeNotFound:
		return http.StatusNotFound
	case CodeQueueFull, CodeQuotaConcurrency, CodeQuotaCodeBytes, CodeRateLimited:
		return http.StatusTooManyRequests
	case CodeVerifyReject, CodeCompileError, CodeFuelExhausted, CodeExecError:
		return http.StatusUnprocessableEntity
	case CodeDeadline:
		return http.StatusGatewayTimeout
	case CodeShuttingDown, CodeCircuitOpen, CodeOverloaded:
		return http.StatusServiceUnavailable
	default: // compile_panic, trap_panic, sim_panic, injected_fault
		return http.StatusInternalServerError
	}
}

// classify maps any error from the compile/execute pipeline onto the
// wire taxonomy.  An *APIError passes through unchanged (admission and
// quota rejections are born classified).  Order matters: the most
// specific wrappers are probed first, and injected faults are recognized
// before the generic buckets so the soak can tell "failures we caused"
// from "failures the stack invented".
func classify(err error) *APIError {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae
	}
	var (
		ve *verify.Error
		cp *codecache.CompilePanicError
		tp *core.TrapPanicError
		sp *core.PanicError
	)
	switch {
	case errors.As(err, &ve):
		return apiErr(CodeVerifyReject, "%v", err)
	case errors.As(err, &cp):
		return apiErr(CodeCompilePanic, "%v", err)
	case errors.As(err, &tp):
		return apiErr(CodeTrapPanic, "%v", err)
	case errors.As(err, &sp):
		return apiErr(CodeSimPanic, "%v", err)
	case errors.Is(err, faultinject.ErrInjected):
		return apiErr(CodeInjectedFault, "%v", err)
	case errors.Is(err, core.ErrUnloaded):
		// Evicted between lookup and call: the key is not resident.
		return apiErr(CodeNotFound, "%v", err)
	case errors.Is(err, core.ErrFuelExhausted):
		return apiErr(CodeFuelExhausted, "%v", err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return apiErr(CodeDeadline, "%v", err)
	default:
		return apiErr(CodeExecError, "%v", err)
	}
}

// classifyCompile is classify with the residual bucket flipped to
// compile_error — used on the compile path, where an untyped failure is
// a front-end parse/codegen error, not an execution fault.
func classifyCompile(err error) *APIError {
	ae := classify(err)
	if ae.Code == CodeExecError {
		return apiErr(CodeCompileError, "%s", ae.Message)
	}
	return ae
}
