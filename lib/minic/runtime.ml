let source =
  {|
// ---- mini-C runtime library ----

int strlen(char *s) {
  int n = 0;
  while (s[n] != '\0') {
    n = n + 1;
  }
  return n;
}

// Unbounded copy, exactly like libc strcpy. The case-study server's
// vulnerability flows through here.
int strcpy(char *dst, char *src) {
  int i = 0;
  while (src[i] != '\0') {
    dst[i] = src[i];
    i = i + 1;
  }
  dst[i] = '\0';
  return i;
}

int strncpy(char *dst, char *src, int n) {
  int i = 0;
  while (i < n - 1 && src[i] != '\0') {
    dst[i] = src[i];
    i = i + 1;
  }
  dst[i] = '\0';
  return i;
}

int strcmp(char *a, char *b) {
  int i = 0;
  while (a[i] != '\0' && a[i] == b[i]) {
    i = i + 1;
  }
  if (a[i] < b[i]) { return -1; }
  if (a[i] > b[i]) { return 1; }
  return 0;
}

int strncmp(char *a, char *b, int n) {
  int i = 0;
  while (i < n) {
    if (a[i] != b[i]) {
      if (a[i] < b[i]) { return -1; }
      return 1;
    }
    if (a[i] == '\0') { return 0; }
    i = i + 1;
  }
  return 0;
}

int memcpy(char *dst, char *src, int n) {
  int i = 0;
  while (i < n) {
    dst[i] = src[i];
    i = i + 1;
  }
  return n;
}

int memset(char *dst, int c, int n) {
  int i = 0;
  while (i < n) {
    dst[i] = (char)c;
    i = i + 1;
  }
  return n;
}

int atoi(char *s) {
  int v = 0;
  int i = 0;
  int neg = 0;
  if (s[0] == '-') {
    neg = 1;
    i = 1;
  }
  while (s[i] >= '0' && s[i] <= '9') {
    v = v * 10 + (s[i] - '0');
    i = i + 1;
  }
  if (neg) { return -v; }
  return v;
}

// Render v in decimal into buf; returns the length.
int itoa(int v, char *buf) {
  char tmp[16];
  int i = 0;
  int n = 0;
  if (v == 0) {
    buf[0] = '0';
    buf[1] = '\0';
    return 1;
  }
  if (v < 0) {
    buf[n] = '-';
    n = n + 1;
    v = -v;
  }
  while (v > 0) {
    tmp[i] = (char)('0' + v % 10);
    v = v / 10;
    i = i + 1;
  }
  while (i > 0) {
    i = i - 1;
    buf[n] = tmp[i];
    n = n + 1;
  }
  buf[n] = '\0';
  return n;
}

int write_str(int fd, char *s) {
  return sys_write(fd, s, strlen(s));
}

int write_int(int fd, int v) {
  char buf[16];
  itoa(v, buf);
  return write_str(fd, buf);
}

int starts_with(char *s, char *prefix) {
  int i = 0;
  while (prefix[i] != '\0') {
    if (s[i] != prefix[i]) { return 0; }
    i = i + 1;
  }
  return 1;
}

// Index of c in s at or after from, or -1.
int find_char(char *s, int from, char c) {
  int i = from;
  while (s[i] != '\0') {
    if (s[i] == c) { return i; }
    i = i + 1;
  }
  return -1;
}

char __pw_buf[2048];
char __pw_field[64];

// getpwnam(name)->pw_uid, reading /etc/passwd through the kernel.
// When /etc/passwd is registered unshared, each variant parses its
// own diversified copy, so the value is already in the variant's
// representation; the cast marks that representation boundary.
uid_t getpwnam_uid(char *name) {
  int fd = sys_open("/etc/passwd", 0);
  if (fd < 0) { return (uid_t)(-1); }
  // One stdio-style buffered read (the file fits); drain any excess
  // into a scratch buffer so every variant sees EOF.
  int total = sys_read(fd, __pw_buf, 2047);
  if (total < 0) { total = 0; }
  char extra[8];
  int more = sys_read(fd, extra, 7);
  while (more > 0) { more = sys_read(fd, extra, 7); }
  sys_close(fd);
  __pw_buf[total] = '\0';
  int pos = 0;
  while (pos < total) {
    // Each line: name:x:uid:gid:gecos:home:shell
    int colon = find_char(__pw_buf, pos, ':');
    if (colon < 0) { return (uid_t)(-1); }
    int len = colon - pos;
    int matches = 0;
    if (strncmp(name, &__pw_buf[pos], len) == 0 && name[len] == '\0') {
      matches = 1;
    }
    if (matches) {
      int f2 = find_char(__pw_buf, colon + 1, ':');
      if (f2 < 0) { return (uid_t)(-1); }
      int f3 = find_char(__pw_buf, f2 + 1, ':');
      if (f3 < 0) { return (uid_t)(-1); }
      int j = 0;
      int k = f2 + 1;
      while (k < f3 && j < 63) {
        __pw_field[j] = __pw_buf[k];
        j = j + 1;
        k = k + 1;
      }
      __pw_field[j] = '\0';
      return (uid_t)atoi(__pw_field);
    }
    int eol = find_char(__pw_buf, pos, '\n');
    if (eol < 0) { return (uid_t)(-1); }
    pos = eol + 1;
  }
  return (uid_t)(-1);
}

// ---- end runtime ----
|}

let with_runtime program = source ^ program
