#include "src/libc/string.h"

#include <climits>

namespace oskit::libc {

size_t Strlen(const char* s) {
  const char* p = s;
  while (*p != '\0') {
    ++p;
  }
  return static_cast<size_t>(p - s);
}

size_t Strnlen(const char* s, size_t max) {
  size_t n = 0;
  while (n < max && s[n] != '\0') {
    ++n;
  }
  return n;
}

char* Strcpy(char* dst, const char* src) {
  char* d = dst;
  while ((*d++ = *src++) != '\0') {
  }
  return dst;
}

size_t Strlcpy(char* dst, const char* src, size_t size) {
  size_t len = Strlen(src);
  if (size != 0) {
    size_t n = len < size - 1 ? len : size - 1;
    Memcpy(dst, src, n);
    dst[n] = '\0';
  }
  return len;
}

char* Strcat(char* dst, const char* src) {
  Strcpy(dst + Strlen(dst), src);
  return dst;
}

int Strcmp(const char* a, const char* b) {
  while (*a != '\0' && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<unsigned char>(*a) - static_cast<unsigned char>(*b);
}

int Strncmp(const char* a, const char* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i] || a[i] == '\0') {
      return static_cast<unsigned char>(a[i]) - static_cast<unsigned char>(b[i]);
    }
  }
  return 0;
}

int Strcasecmp(const char* a, const char* b) {
  while (*a != '\0' && ToLower(*a) == ToLower(*b)) {
    ++a;
    ++b;
  }
  return ToLower(static_cast<unsigned char>(*a)) -
         ToLower(static_cast<unsigned char>(*b));
}

const char* Strchr(const char* s, int c) {
  for (;; ++s) {
    if (*s == static_cast<char>(c)) {
      return s;
    }
    if (*s == '\0') {
      return nullptr;
    }
  }
}

const char* Strrchr(const char* s, int c) {
  const char* found = nullptr;
  for (;; ++s) {
    if (*s == static_cast<char>(c)) {
      found = s;
    }
    if (*s == '\0') {
      return found;
    }
  }
}

const char* Strstr(const char* haystack, const char* needle) {
  if (needle[0] == '\0') {
    return haystack;
  }
  size_t needle_len = Strlen(needle);
  for (; *haystack != '\0'; ++haystack) {
    if (Strncmp(haystack, needle, needle_len) == 0) {
      return haystack;
    }
  }
  return nullptr;
}

void* Memcpy(void* dst, const void* src, size_t n) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  for (size_t i = 0; i < n; ++i) {
    d[i] = s[i];
  }
  return dst;
}

void* Memmove(void* dst, const void* src, size_t n) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  if (d < s) {
    for (size_t i = 0; i < n; ++i) {
      d[i] = s[i];
    }
  } else if (d > s) {
    for (size_t i = n; i > 0; --i) {
      d[i - 1] = s[i - 1];
    }
  }
  return dst;
}

void* Memset(void* dst, int value, size_t n) {
  auto* d = static_cast<unsigned char*>(dst);
  for (size_t i = 0; i < n; ++i) {
    d[i] = static_cast<unsigned char>(value);
  }
  return dst;
}

int Memcmp(const void* a, const void* b, size_t n) {
  const auto* pa = static_cast<const unsigned char*>(a);
  const auto* pb = static_cast<const unsigned char*>(b);
  for (size_t i = 0; i < n; ++i) {
    if (pa[i] != pb[i]) {
      return pa[i] - pb[i];
    }
  }
  return 0;
}

const void* Memchr(const void* s, int c, size_t n) {
  const auto* p = static_cast<const unsigned char*>(s);
  for (size_t i = 0; i < n; ++i) {
    if (p[i] == static_cast<unsigned char>(c)) {
      return p + i;
    }
  }
  return nullptr;
}

int ToLower(int c) { return (c >= 'A' && c <= 'Z') ? c - 'A' + 'a' : c; }
bool IsDigit(int c) { return c >= '0' && c <= '9'; }
bool IsSpace(int c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
}
bool IsAlpha(int c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

namespace {

// The part Strtoul and Strtol share: whitespace, sign, base prefix and
// digits.  Returns the magnitude; *overflow is set past 2^64 - 1.
unsigned long ParseMagnitude(const char* s, const char** end, int base,
                             bool* negative, bool* overflow) {
  const char* const begin = s;
  while (IsSpace(*s)) {
    ++s;
  }
  if (*s == '+' || *s == '-') {
    *negative = *s == '-';
    ++s;
  }
  // After a "0x" with no hex digit, the number read is the "0".
  const char* no_digits = begin;
  if ((base == 0 || base == 16) && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    no_digits = s + 1;
    s += 2;
    base = 16;
  } else if (base == 0 && s[0] == '0') {
    base = 8;
  } else if (base == 0) {
    base = 10;
  }
  unsigned long value = 0;
  const char* start = s;
  for (;; ++s) {
    // A character that is no digit reads as `base`, which ends the number.
    int digit = IsDigit(*s)   ? *s - '0'
                : IsAlpha(*s) ? ToLower(*s) - 'a' + 10
                              : base;
    if (digit >= base) {
      break;
    }
    auto b = static_cast<unsigned long>(base), d = static_cast<unsigned long>(digit);
    *overflow = *overflow || value > (ULONG_MAX - d) / b;
    value = value * b + d;
  }
  if (end != nullptr) {
    *end = s == start ? no_digits : s;
  }
  return value;
}

}  // namespace

unsigned long Strtoul(const char* s, const char** end, int base) {
  bool negative = false, overflow = false;
  unsigned long value = ParseMagnitude(s, end, base, &negative, &overflow);
  // Past ULONG_MAX saturates, sign or no sign, as C's strtoul does.
  return overflow ? ULONG_MAX : negative ? ~value + 1 : value;
}

long Strtol(const char* s, const char** end, int base) {
  bool negative = false, overflow = false;
  unsigned long value = ParseMagnitude(s, end, base, &negative, &overflow);
  // Saturates at LONG_MAX, or at LONG_MIN when negative, as C's strtol does.
  unsigned long limit = static_cast<unsigned long>(LONG_MAX) + negative;
  value = overflow || value > limit ? limit : value;
  return static_cast<long>(negative ? ~value + 1 : value);
}

int Atoi(const char* s) { return static_cast<int>(Strtol(s, nullptr, 10)); }

}  // namespace oskit::libc
