// Minimal C library: string and memory routines (paper §3.4).
//
// The OSKit is self-sufficient: it does not use or depend on any existing
// libraries installed on the system (§4.1).  These are our own
// implementations, in the oskit::libc namespace; kernel-side code uses them
// instead of the host's <cstring>.

#ifndef OSKIT_SRC_LIBC_STRING_H_
#define OSKIT_SRC_LIBC_STRING_H_

#include <cstddef>
#include <cstdint>

namespace oskit::libc {

size_t Strlen(const char* s);
size_t Strnlen(const char* s, size_t max);
char* Strcpy(char* dst, const char* src);
size_t Strlcpy(char* dst, const char* src, size_t size);  // BSD-style, safer
char* Strcat(char* dst, const char* src);
int Strcmp(const char* a, const char* b);
int Strncmp(const char* a, const char* b, size_t n);
int Strcasecmp(const char* a, const char* b);
const char* Strchr(const char* s, int c);
const char* Strrchr(const char* s, int c);
const char* Strstr(const char* haystack, const char* needle);

void* Memcpy(void* dst, const void* src, size_t n);
void* Memmove(void* dst, const void* src, size_t n);
void* Memset(void* dst, int value, size_t n);
int Memcmp(const void* a, const void* b, size_t n);
const void* Memchr(const void* s, int c, size_t n);

// Numeric conversion.  Matches C strtol semantics: optional whitespace,
// sign, base prefix ("0x"/"0") when base == 0.  Strtoul saturates at
// ULONG_MAX past 2^64 - 1; Strtol at LONG_MAX and LONG_MIN.
long Strtol(const char* s, const char** end, int base);
unsigned long Strtoul(const char* s, const char** end, int base);
int Atoi(const char* s);

int ToLower(int c);
bool IsDigit(int c);
bool IsSpace(int c);
bool IsAlpha(int c);

}  // namespace oskit::libc

#endif  // OSKIT_SRC_LIBC_STRING_H_
