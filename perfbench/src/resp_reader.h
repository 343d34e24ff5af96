// Incremental RESP2 reply reader for the load generator. A reply may
// arrive split over any number of reads: Parse() returns 0 ("need more")
// until the whole frame is buffered and never consumes a partial frame.
// Scalar replies point into the caller's buffer (no copies on the hot
// path); arrays, used only by the INFO/LATENCY scrapes, own their items.

#ifndef PERFBENCH_RESP_READER_H_
#define PERFBENCH_RESP_READER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Reply {
  enum Type : char {
    kSimple = '+',
    kError = '-',
    kInteger = ':',
    kBulk = '$',
    kArray = '*',
    kNull = '_',
  };
  Type type = kNull;
  std::string_view str;  // Simple/error/bulk payload (aliases the buffer).
  int64_t integer = 0;
  std::vector<Reply> elements;
};

// Parses one reply from buf[0..n). Returns the bytes it spans, 0 when
// the frame is incomplete, or -1 when the bytes are not RESP.
inline long ParseReply(const char* buf, size_t n, Reply* out, int depth = 0) {
  if (n < 3) return 0;
  const char* crlf = static_cast<const char*>(memchr(buf, '\r', n));
  if (crlf == nullptr || static_cast<size_t>(crlf - buf) + 1 >= n) return 0;
  if (crlf[1] != '\n') return -1;
  const size_t line_end = static_cast<size_t>(crlf - buf) + 2;
  std::string_view line(buf + 1, static_cast<size_t>(crlf - buf) - 1);
  auto parse_int = [&](int64_t* v) {
    if (line.empty() || line.size() > 19) return false;
    size_t i = 0;
    bool neg = false;
    if (line[0] == '-') {
      neg = true;
      i = 1;
      if (line.size() == 1) return false;
    }
    int64_t x = 0;
    for (; i < line.size(); ++i) {
      if (line[i] < '0' || line[i] > '9') return false;
      x = x * 10 + (line[i] - '0');
    }
    *v = neg ? -x : x;
    return true;
  };
  out->elements.clear();
  switch (buf[0]) {
    case '+':
    case '-':
      out->type = static_cast<Reply::Type>(buf[0]);
      out->str = line;
      return static_cast<long>(line_end);
    case ':':
      out->type = Reply::kInteger;
      if (!parse_int(&out->integer)) return -1;
      return static_cast<long>(line_end);
    case '$': {
      int64_t len = 0;
      if (!parse_int(&len) || len < -1) return -1;
      if (len == -1) {
        out->type = Reply::kNull;
        return static_cast<long>(line_end);
      }
      const size_t need = line_end + static_cast<size_t>(len) + 2;
      if (n < need) return 0;
      if (buf[need - 2] != '\r' || buf[need - 1] != '\n') return -1;
      out->type = Reply::kBulk;
      out->str = std::string_view(buf + line_end, static_cast<size_t>(len));
      return static_cast<long>(need);
    }
    case '*': {
      int64_t count = 0;
      if (!parse_int(&count) || count < -1 || depth > 8) return -1;
      if (count == -1) {
        out->type = Reply::kNull;
        return static_cast<long>(line_end);
      }
      out->type = Reply::kArray;
      size_t pos = line_end;
      std::vector<Reply> items(static_cast<size_t>(count));
      for (auto& item : items) {
        const long used = ParseReply(buf + pos, n - pos, &item, depth + 1);
        if (used <= 0) return used;
        pos += static_cast<size_t>(used);
      }
      out->elements = std::move(items);
      return static_cast<long>(pos);
    }
    default:
      return -1;
  }
}

// Appends "*N\r\n$len\r\narg..." for a command.
inline void AppendCommand(std::string* out,
                          std::initializer_list<std::string_view> args) {
  out->push_back('*');
  out->append(std::to_string(args.size()));
  out->append("\r\n");
  for (auto a : args) {
    out->push_back('$');
    out->append(std::to_string(a.size()));
    out->append("\r\n");
    out->append(a.data(), a.size());
    out->append("\r\n");
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_RESP_READER_H_
