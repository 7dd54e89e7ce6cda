package obs

import (
	"io"
	"log/slog"
)

// NewLogger returns a JSON slog logger at the given level — the structured
// log format cmd/atomiqued, the engine, and the workers share so a collector
// can join log lines to traces on the traceId attribute.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// DiscardLogger returns a logger that drops everything — the default for
// engines that did not opt in, such as the ones tests start.
func DiscardLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// WithTrace returns l with the traceId attribute attached, so every line a
// job's lifecycle emits carries its correlation key.
func WithTrace(l *slog.Logger, traceID string) *slog.Logger {
	if l == nil {
		return DiscardLogger()
	}
	return l.With(slog.String("traceId", traceID))
}
