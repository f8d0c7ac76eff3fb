let url_buffer_size = 64

(* The server proper. Note the declaration order of [urlbuf] and
   [worker_uid]: the code generator lays globals out in declaration
   order, so the UID sits directly after the overflowable buffer. *)
let body ~log_uid =
  let error_log_stmt =
    if log_uid then
      (* The Section 4 pitfall: a UID value flows into shared log
         output. The transformer's scrubbing pass removes it. *)
      {|
    logpos = log_append(logbuf, logpos, " euid=");
    char uidtext[16];
    itoa((int)geteuid(), uidtext);
    logpos = log_append(logbuf, logpos, uidtext);|}
    else ""
  in
  Printf.sprintf
    {|
// ---- minihttpd: static file server with privilege separation ----

char reqbuf[1024];      // raw request bytes
char method[16];
char urlbuf[64];        // VULNERABLE: unbounded strcpy of the URL
uid_t worker_uid = 0;   // sits right after urlbuf; resolved at startup
char pathbuf[256];
char filebuf[4096];
char logbuf[256];
int request_count = 0;

// Advisory auth check: copies the query-string token into a small
// stack buffer. VULNERABLE: classic stack smash.
int check_auth(char *url) {
  int q = find_char(url, 0, '?');
  if (q < 0) { return 1; }
  char token[32];
  strcpy(token, &url[q + 1]);
  if (strcmp(token, "letmein") == 0) { return 1; }
  return 1;
}

int log_append(char *buf, int pos, char *s) {
  int i = 0;
  while (s[i] != '\0' && pos < 254) {
    buf[pos] = s[i];
    pos = pos + 1;
    i = i + 1;
  }
  buf[pos] = '\0';
  return pos;
}

int log_request(char *url, int status) {
  int logpos = 0;
  logpos = log_append(logbuf, logpos, "GET ");
  logpos = log_append(logbuf, logpos, url);
  logpos = log_append(logbuf, logpos, " ");
  char statustext[16];
  itoa(status, statustext);
  logpos = log_append(logbuf, logpos, statustext);%s
  logpos = log_append(logbuf, logpos, "\n");
  int lf = sys_open("/var/log/httpd.log", 2);
  if (lf < 0) { return 0; }
  sys_write(lf, logbuf, logpos);
  sys_close(lf);
  return 1;
}

int parse_request(void) {
  int sp1 = find_char(reqbuf, 0, ' ');
  if (sp1 < 0 || sp1 > 14) { return 0; }
  int i = 0;
  while (i < sp1) {
    method[i] = reqbuf[i];
    i = i + 1;
  }
  method[i] = '\0';
  int sp2 = find_char(reqbuf, sp1 + 1, ' ');
  if (sp2 < 0) { return 0; }
  reqbuf[sp2] = '\0';
  strcpy(urlbuf, &reqbuf[sp1 + 1]);   // overflow: no bounds check
  return 1;
}

int send_status(int fd, char *status_line, char *connection_body, int bodylen) {
  write_str(fd, "HTTP/1.0 ");
  write_str(fd, status_line);
  write_str(fd, "\r\nContent-Length: ");
  write_int(fd, bodylen);
  write_str(fd, "\r\n\r\n");
  sys_write(fd, connection_body, bodylen);
  return 1;
}

int respond_error(int fd, char *status_line, char *message) {
  send_status(fd, status_line, message, strlen(message));
  return 1;
}

int serve_file(int fd, char *url) {
  strcpy(pathbuf, "/var/www");
  if (url[0] == '/' && url[1] == '\0') {
    strcpy(&pathbuf[8], "/index.html");
  } else {
    // strip any query string before the filesystem lookup
    int q = find_char(url, 0, '?');
    if (q >= 0) { url[q] = '\0'; }
    strcpy(&pathbuf[8], url);
  }
  int f = sys_open(pathbuf, 0);
  if (f < 0) {
    respond_error(fd, "404 Not Found", "not found\n");
    return 404;
  }
  int n = sys_read(f, filebuf, 4095);
  if (n < 0) { n = 0; }
  write_str(fd, "HTTP/1.0 200 OK\r\nContent-Length: ");
  write_int(fd, n);
  write_str(fd, "\r\n\r\n");
  sys_write(fd, filebuf, n);
  // stream the remainder for files larger than the buffer
  int more = sys_read(f, filebuf, 4095);
  while (more > 0) {
    sys_write(fd, filebuf, more);
    more = sys_read(f, filebuf, 4095);
  }
  sys_close(f);
  return 200;
}

int handle(int fd) {
  int n = sys_read(fd, reqbuf, 1023);
  if (n < 0) { n = 0; }
  reqbuf[n] = '\0';
  if (!parse_request()) {
    respond_error(fd, "400 Bad Request", "bad request\n");
    return 0;
  }
  if (strcmp(method, "GET") != 0) {
    respond_error(fd, "405 Method Not Allowed", "only GET\n");
    return 0;
  }
  check_auth(urlbuf);
  // Per-request sanity check: we must still be root before the
  // privilege dance (one UID comparison per request, as in the
  // paper's transformed Apache).
  if (geteuid() != 0) {
    respond_error(fd, "500 Internal Server Error", "lost root\n");
    return 0;
  }
  // Defensive check: the worker identity must have resolved at
  // startup (the transformer turns this into one cc_eq system call
  // per request, the paper's Configuration 2 overhead).
  if (worker_uid == (uid_t)(-1)) {
    respond_error(fd, "500 Internal Server Error", "no worker identity\n");
    return 0;
  }
  // Drop privileges for the filesystem work, then regain root.
  seteuid(worker_uid);
  int status = serve_file(fd, urlbuf);
  seteuid(0);
  log_request(urlbuf, status);
  request_count = request_count + 1;
  return 1;
}

int main(void) {
  worker_uid = getpwnam_uid("www");
  if (worker_uid == (uid_t)(-1)) { return 1; }
  if (worker_uid == 0) { return 2; }
  while (1) {
    int fd = sys_accept(3);
    if (fd < 0) { return 3; }
    handle(fd);
    sys_close(fd);
  }
  return 0;
}
|}
    error_log_stmt

let source ?(log_uid = true) () = Nv_minic.Runtime.with_runtime (body ~log_uid)
