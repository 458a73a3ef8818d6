// Package wire defines the binary HTTP protocol locshortd speaks next to
// its JSON API. The insight it packages: the store's canonical payload
// encodings (version byte + the exact bytes the content fingerprints are
// computed over) already are a wire format — self-describing, self-
// verifying, and byte-identical on every node. The binary protocol
// therefore never invents a second encoding; it moves the store payloads
// verbatim and adds only the two small envelopes the payloads cannot
// carry themselves: the shortcut request frame (which names a graph, a
// partition spec or an explicit part list, and options — inputs, not
// content) and a handful of response headers for the metadata the JSON
// responses put in their envelope. The request frame is also how cluster
// nodes relay a misdirected request to its ring owner, whatever encoding
// the client used.
//
// Negotiation is plain HTTP: a request body in this format is announced
// with `Content-Type: application/x-locshort`, a response in it is asked
// for with `Accept: application/x-locshort`. Everything else — routes,
// status codes, error envelopes (errors are always JSON) — is shared with
// the JSON protocol, and the two are byte-equivalent where they overlap:
// the same payload bytes, the same fingerprints.
//
// The package is part of the deterministic core policed by the
// internal/analysis lint suite (DESIGN.md §12) — codec output must be
// byte-deterministic — and its codec functions carry //locshort:hotpath,
// arming the per-call allocation rules; cmd/locshortlint enforces both
// in CI.
package wire
