package api

import "encoding/json"

// Error codes: the machine-readable half of the error envelope. Codes
// are stable API — clients may switch on them — while messages are
// prose and may change. Every code maps to one HTTP status class,
// noted per constant.
const (
	// CodeInvalidRequest (400): the body failed to decode or a field
	// failed validation (missing dataset, both/neither of group and
	// members, negative or over-cap null_samples, malformed JSON).
	CodeInvalidRequest = "invalid_request"
	// CodeUnknownDataset (404): the dataset name is not in the
	// GET /v1/datasets inventory.
	CodeUnknownDataset = "unknown_dataset"
	// CodeUnknownGroup (404): the group is not a circle/community of
	// the (existing) dataset.
	CodeUnknownGroup = "unknown_group"
	// CodeUnknownMember (400): a member external ID is not a vertex of
	// the dataset.
	CodeUnknownMember = "unknown_member"
	// CodeUnknownFunc (400): a funcs entry names no registered scoring
	// function.
	CodeUnknownFunc = "unknown_func"
	// CodeExperimentGated (400): the request touches an experimental
	// surface the server was not started with; the message names the
	// -experiments opt-in.
	CodeExperimentGated = "experiment_gated"
	// CodeQueueFull (429): the bounded work queue is full and the
	// request was shed; Retry-After advertises the backoff seconds.
	CodeQueueFull = "queue_full"
	// CodeDraining (503): the server is in its graceful shutdown drain
	// and accepts no new work.
	CodeDraining = "draining"
	// CodeCancelled (503): the request's deadline passed or every
	// waiter departed before the work ran to completion.
	CodeCancelled = "cancelled"
	// CodeInternal (500): an unexpected server-side failure.
	CodeInternal = "internal"
)

// Error is the machine-readable error: a stable code plus a
// human-readable message.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface so server code can thread an
// api.Error through Go error paths without losing the code.
func (e *Error) Error() string { return e.Message }

// ErrorResponse is the uniform JSON envelope of every non-2xx response.
type ErrorResponse struct {
	Error Error `json:"error"`
}

// ErrorBody marshals the error envelope for code and message. It never
// fails for plain strings, so callers can write the result directly.
func ErrorBody(code, message string) []byte {
	b, _ := json.Marshal(ErrorResponse{Error: Error{Code: code, Message: message}})
	return b
}

// DecodeError parses an error-envelope body back into its Error. It
// reports ok=false when the body is not the envelope (e.g. a non-JSON
// proxy error page), in which case callers should fall back to the raw
// body text.
func DecodeError(body []byte) (Error, bool) {
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Code == "" {
		return Error{}, false
	}
	return er.Error, true
}
