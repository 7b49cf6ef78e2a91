#include "sim/sweep_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace fefet::sim {
namespace {

std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr char kLinePrefix[] = "{\"crc\":\"";      // + 8 hex digits
constexpr char kLineMiddle[] = "\",\"rec\":";      // + body + '}'
constexpr std::size_t kHexDigits = 8;
// Offset of the body within a record line.
constexpr std::size_t kBodyOffset =
    sizeof(kLinePrefix) - 1 + kHexDigits + sizeof(kLineMiddle) - 1;

std::string hex32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

bool jsonUnescape(std::string_view escaped, std::string* out) {
  out->clear();
  out->reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    const char c = escaped[i];
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= escaped.size()) return false;
    switch (escaped[i]) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (i + 4 >= escaped.size()) return false;
        unsigned code = 0;
        for (int k = 1; k <= 4; ++k) {
          const char h = escaped[i + static_cast<std::size_t>(k)];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        if (code > 0xFF) return false;  // payloads are byte strings
        out->push_back(static_cast<char>(code));
        i += 4;
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

bool parseJournalU64(const std::string& body, const char* key,
                     std::uint64_t* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = body.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t i = pos + needle.size();
  if (i >= body.size() || !std::isdigit(static_cast<unsigned char>(body[i])))
    return false;
  std::uint64_t value = 0;
  for (; i < body.size() && std::isdigit(static_cast<unsigned char>(body[i]));
       ++i) {
    value = value * 10 + static_cast<std::uint64_t>(body[i] - '0');
  }
  *out = value;
  return true;
}

bool parseJournalString(const std::string& body, const char* key,
                        std::string* out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const auto pos = body.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t end = pos + needle.size();
  while (end < body.size()) {
    if (body[end] == '\\') {
      end += 2;
      continue;
    }
    if (body[end] == '"') break;
    ++end;
  }
  if (end >= body.size()) return false;
  return jsonUnescape(
      std::string_view(body).substr(pos + needle.size(),
                                    end - pos - needle.size()),
      out);
}

bool parseJournalLine(const std::string& line, std::string* body) {
  if (line.size() < kBodyOffset + 1) return false;
  if (line.compare(0, sizeof(kLinePrefix) - 1, kLinePrefix) != 0) return false;
  std::uint32_t storedCrc = 0;
  for (std::size_t i = 0; i < kHexDigits; ++i) {
    const char h = line[sizeof(kLinePrefix) - 1 + i];
    storedCrc <<= 4;
    if (h >= '0' && h <= '9') storedCrc |= static_cast<std::uint32_t>(h - '0');
    else if (h >= 'a' && h <= 'f') storedCrc |= static_cast<std::uint32_t>(h - 'a' + 10);
    else return false;
  }
  if (line.compare(sizeof(kLinePrefix) - 1 + kHexDigits,
                   sizeof(kLineMiddle) - 1, kLineMiddle) != 0)
    return false;
  if (line.back() != '}') return false;
  *body = line.substr(kBodyOffset, line.size() - kBodyOffset - 1);
  return crc32(*body) == storedCrc;
}

std::string journalHeaderBody(std::size_t points, std::uint64_t baseSeed,
                              std::uint64_t configDigest) {
  std::ostringstream os;
  os << "{\"type\":\"header\",\"version\":1,\"points\":" << points
     << ",\"baseSeed\":" << baseSeed << ",\"configDigest\":" << configDigest
     << "}";
  return os.str();
}

std::string journalPointBody(std::size_t index, std::string_view payload) {
  std::ostringstream os;
  os << "{\"type\":\"point\",\"index\":" << index << ",\"payload\":\""
     << strings::jsonEscape(std::string(payload)) << "\"}";
  return os.str();
}

std::string renderJournalLine(const std::string& body) {
  return kLinePrefix + hex32(crc32(body)) + kLineMiddle + body + "}\n";
}

/// fsync the directory containing `path`, so a freshly created file's
/// directory entry is durable (a journal whose records are fsynced but
/// whose name is not can vanish wholesale after power loss).  Failures
/// are ignored: some filesystems refuse directory fsync and the data
/// fsyncs still bound the loss to "file never existed".
void fsyncParentDir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dirFd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirFd < 0) return;
  ::fsync(dirFd);  // best effort
  ::close(dirFd);
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = makeCrcTable();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : data) {
    crc = table[(crc ^ static_cast<unsigned char>(c)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

SweepJournalLoad SweepJournal::load(const std::string& path,
                                    std::size_t expectedPoints,
                                    std::uint64_t baseSeed,
                                    std::uint64_t configDigest) {
  SweepJournalLoad result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.warning = "journal " + path + " does not exist; starting fresh";
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  if (contents.empty()) {
    result.warning = "journal " + path + " is empty; starting fresh";
    return result;
  }

  std::size_t offset = 0;
  bool sawHeader = false;
  std::vector<bool> seen(expectedPoints, false);
  while (offset < contents.size()) {
    const auto newline = contents.find('\n', offset);
    if (newline == std::string::npos) {
      // No terminator: a record was being written when the process died.
      result.warning = "journal " + path + " has a torn tail record; " +
                       "truncating to the last complete record";
      break;
    }
    const std::string line = contents.substr(offset, newline - offset);
    std::string body;
    if (!parseJournalLine(line, &body)) {
      if (!sawHeader) {
        result.warning =
            "journal " + path + " has no valid header; starting fresh";
        return result;
      }
      result.warning = "journal " + path +
                       " has a corrupt record; truncating to the last good "
                       "record";
      break;
    }
    if (!sawHeader) {
      std::uint64_t version = 0, points = 0, seed = 0, digest = 0;
      const bool parsed = body.find("\"type\":\"header\"") != std::string::npos &&
                          parseJournalU64(body,"version", &version) &&
                          parseJournalU64(body,"points", &points) &&
                          parseJournalU64(body,"baseSeed", &seed) &&
                          parseJournalU64(body,"configDigest", &digest);
      if (!parsed || version != 1) {
        result.warning =
            "journal " + path + " has no valid header; starting fresh";
        return result;
      }
      if (points != expectedPoints || seed != baseSeed ||
          digest != configDigest) {
        result.warning = "journal " + path +
                         " was written by a different run configuration "
                         "(points/seed/config digest mismatch); starting fresh";
        return result;
      }
      sawHeader = true;
    } else {
      std::uint64_t index = 0;
      std::string payload;
      const bool parsed = body.find("\"type\":\"point\"") != std::string::npos &&
                          parseJournalU64(body,"index", &index) &&
                          parseJournalString(body, "payload", &payload) &&
                          index < expectedPoints;
      if (!parsed) {
        result.warning = "journal " + path +
                         " has a malformed point record; truncating to the "
                         "last good record";
        break;
      }
      if (seen[index]) {
        ++result.duplicates;
        result.warning = "journal " + path + " repeats point " +
                         std::to_string(index) + "; keeping the first record";
      } else {
        seen[index] = true;
        result.records.push_back({static_cast<std::size_t>(index),
                                  std::move(payload)});
      }
    }
    offset = newline + 1;
    result.validBytes = offset;
  }
  result.usable = sawHeader;
  if (!sawHeader) {
    result.warning = "journal " + path + " holds no usable records; starting fresh";
  }
  return result;
}

SweepJournal::SweepJournal(const std::string& path, std::size_t points,
                           std::uint64_t baseSeed, std::uint64_t configDigest,
                           const SweepJournalLoad* resumeFrom)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw SimulationError("cannot open sweep journal " + path + ": " +
                          std::strerror(errno));
  }
  // The records are fsynced per append, but a freshly created file's NAME
  // lives in the directory — without a directory fsync the whole journal
  // can vanish after power loss even though every record was durable.
  fsyncParentDir(path);
  const bool resuming = resumeFrom != nullptr && resumeFrom->usable;
  const off_t keep =
      resuming ? static_cast<off_t>(resumeFrom->validBytes) : 0;
  if (::ftruncate(fd_, keep) != 0 ||
      ::lseek(fd_, 0, SEEK_END) == static_cast<off_t>(-1)) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw SimulationError("cannot prepare sweep journal " + path + ": " +
                          std::strerror(err));
  }
  if (!resuming) {
    appendLine(journalHeaderBody(points, baseSeed, configDigest));
  }
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void SweepJournal::appendPoint(std::size_t index, std::string_view payload) {
  appendLine(journalPointBody(index, payload));
}

void SweepJournal::appendLine(const std::string& body) {
  const std::string line = renderJournalLine(body);
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n =
        ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SimulationError("cannot append to sweep journal " + path_ + ": " +
                            std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  // A record must be durable before the engine reports the point done.
  ::fsync(fd_);
}

}  // namespace fefet::sim
