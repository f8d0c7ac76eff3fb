(** The case-study web server (mini-C source) — the Apache analogue of
    Section 4.

    A static-file HTTP/1.0 server with the privilege-separation
    pattern: it resolves its worker identity from [/etc/passwd] at
    startup (through the unshared-files machinery when deployed with
    the UID variation), drops its effective UID to the worker for each
    request, and regains root between requests.

    Two vulnerabilities are planted deliberately, mirroring the threat
    models the paper evaluates:

    - {b CWE-787 global overflow (non-control-data)}: the request URL
      is copied into a fixed 64-byte buffer with [strcpy]; the global
      that follows it is [worker_uid]. A 64-byte URL writes the copy's
      terminating NUL over the UID's low byte — with the canonical
      value 33 ([0x00000021]) this yields exactly UID 0 (root), the
      Chen-et-al-style UID corruption the paper's variation targets.
    - {b stack smash}: the query-string "auth token" is copied into a
      32-byte stack buffer with [strcpy], reaching the saved frame
      pointer and return address — the absolute-address /
      code-injection vector used to exercise address-space partitioning
      (Figure 1) and instruction tagging.

    The document-root join also allows [..] traversal, so a corrupted
    (root) effective UID lets "GET /../secret/shadow" read a file mode
    0600. *)

val source : ?log_uid:bool -> unit -> string
(** Full program text (runtime library included). [log_uid] (default
    true) controls whether the error path writes the effective UID into
    the access log — the Apache behaviour from Section 4 that forces
    the log-scrubbing workaround; the UID transformer removes it. *)

val url_buffer_size : int
(** 64: the size of the vulnerable URL buffer; a URL of exactly this
    length zeroes [worker_uid]'s low byte. *)
