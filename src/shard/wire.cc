#include "shard/wire.h"

#include <cstring>
#include <utility>

#include "common/crc32.h"

namespace privbasis::shardwire {

namespace {

constexpr size_t kHeaderBytes = 16;

void PutLe32(std::string* buf, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  buf->append(b, 4);
}

uint32_t GetLe32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

/// Reads exactly `len` bytes, looping over short reads. EOF mid-read is
/// kIoError unless `clean_eof_ok` and no byte has arrived yet — then
/// kNotFound, the clean-disconnect signal.
Status ReadFull(const net::Fd& fd, char* buf, size_t len,
                net::Deadline deadline, bool clean_eof_ok) {
  size_t got = 0;
  while (got < len) {
    PRIVBASIS_ASSIGN_OR_RETURN(
        size_t n, net::ReadSome(fd, buf + got, len - got, deadline));
    if (n == 0) {
      if (clean_eof_ok && got == 0) return Status::NotFound("peer closed");
      return Status::IoError("connection closed mid-frame");
    }
    got += n;
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(const net::Fd& fd, FrameType type,
                  std::string_view payload, net::Deadline deadline) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload exceeds cap");
  }
  std::string header;
  header.reserve(kHeaderBytes + payload.size());
  PutLe32(&header, kMagic);
  header.push_back(static_cast<char>(kWireVersion));
  header.push_back(static_cast<char>(type));
  header.push_back(0);
  header.push_back(0);
  PutLe32(&header, static_cast<uint32_t>(payload.size()));
  PutLe32(&header, Crc32(payload));
  header.append(payload);
  return net::WriteAll(fd, header, deadline);
}

Result<Frame> ReadFrame(const net::Fd& fd, net::Deadline deadline) {
  char header[kHeaderBytes];
  PRIVBASIS_RETURN_NOT_OK(
      ReadFull(fd, header, kHeaderBytes, deadline, /*clean_eof_ok=*/true));
  if (GetLe32(header) != kMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (static_cast<uint8_t>(header[4]) != kWireVersion) {
    return Status::InvalidArgument(
        "unsupported wire version " +
        std::to_string(static_cast<uint8_t>(header[4])));
  }
  const uint8_t type = static_cast<uint8_t>(header[5]);
  const uint32_t len = GetLe32(header + 8);
  const uint32_t crc = GetLe32(header + 12);
  if (len > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload length " +
                                   std::to_string(len) + " exceeds cap");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.resize(len);
  if (len > 0) {
    PRIVBASIS_RETURN_NOT_OK(ReadFull(fd, frame.payload.data(), len, deadline,
                                     /*clean_eof_ok=*/false));
  }
  if (Crc32(frame.payload) != crc) {
    return Status::InvalidArgument("frame payload crc mismatch");
  }
  return frame;
}

void Writer::PutU32(uint32_t v) { PutLe32(&buf_, v); }

void Writer::PutU64(uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  buf_.append(b, 8);
}

void Writer::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void Writer::PutU32Vec(std::span<const uint32_t> v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (uint32_t e : v) PutU32(e);
}

void Writer::PutU64Vec(const std::vector<uint64_t>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (uint64_t e : v) PutU64(e);
}

Status Reader::Need(size_t bytes) const {
  if (pos_ + bytes > data_.size()) {
    return Status::InvalidArgument("truncated shard frame payload");
  }
  return Status::OK();
}

Result<uint32_t> Reader::GetU32() {
  PRIVBASIS_RETURN_NOT_OK(Need(4));
  uint32_t v;
  std::memcpy(&v, data_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

Result<uint64_t> Reader::GetU64() {
  PRIVBASIS_RETURN_NOT_OK(Need(8));
  uint64_t v;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

Result<std::string> Reader::GetString() {
  PRIVBASIS_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  PRIVBASIS_RETURN_NOT_OK(Need(len));
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

Result<std::vector<uint32_t>> Reader::GetU32Vec() {
  PRIVBASIS_ASSIGN_OR_RETURN(uint32_t count, GetU32());
  PRIVBASIS_RETURN_NOT_OK(Need(size_t{count} * 4));
  std::vector<uint32_t> v(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(&v[i], data_.data() + pos_, 4);
    pos_ += 4;
  }
  return v;
}

Result<std::vector<uint64_t>> Reader::GetU64Vec() {
  PRIVBASIS_ASSIGN_OR_RETURN(uint32_t count, GetU32());
  PRIVBASIS_RETURN_NOT_OK(Need(size_t{count} * 8));
  std::vector<uint64_t> v(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(&v[i], data_.data() + pos_, 8);
    pos_ += 8;
  }
  return v;
}

Status Reader::ExpectEnd() const {
  if (pos_ != data_.size()) {
    return Status::InvalidArgument("trailing bytes in shard frame payload");
  }
  return Status::OK();
}

std::string EncodeDatabase(const TransactionDatabase& db) {
  Writer w;
  w.PutU32(db.UniverseSize());
  const size_t n = db.NumTransactions();
  w.PutU64(n);
  w.PutU64(db.TotalItemOccurrences());
  for (size_t t = 0; t < n; ++t) {
    const auto txn = db.Transaction(t);
    w.PutU32(static_cast<uint32_t>(txn.size()));
    for (Item item : txn) w.PutU32(item);
  }
  return std::move(w).Take();
}

Result<TransactionDatabase> DecodeDatabase(std::string_view payload) {
  Reader r(payload);
  PRIVBASIS_ASSIGN_OR_RETURN(uint32_t universe, r.GetU32());
  PRIVBASIS_ASSIGN_OR_RETURN(uint64_t n, r.GetU64());
  PRIVBASIS_ASSIGN_OR_RETURN(uint64_t total, r.GetU64());
  // Cheap structural bound before any allocation: every transaction
  // costs ≥ 4 bytes, every item 4 more.
  if (n > payload.size() / 4 || total > payload.size() / 4) {
    return Status::InvalidArgument("shard database payload too short");
  }
  TransactionDatabase::Builder builder(universe);
  std::vector<Item> txn;
  for (uint64_t t = 0; t < n; ++t) {
    PRIVBASIS_ASSIGN_OR_RETURN(std::vector<uint32_t> items, r.GetU32Vec());
    txn.assign(items.begin(), items.end());
    builder.AddTransaction(std::move(txn));
    txn.clear();
  }
  PRIVBASIS_RETURN_NOT_OK(r.ExpectEnd());
  return std::move(builder).Build();
}

std::string EncodeBasisSet(const BasisSet& basis_set) {
  Writer w;
  w.PutU32(static_cast<uint32_t>(basis_set.Width()));
  for (size_t i = 0; i < basis_set.Width(); ++i) {
    w.PutU32Vec(basis_set.basis(i).items());
  }
  return std::move(w).Take();
}

Result<BasisSet> DecodeBasisSet(Reader& reader) {
  PRIVBASIS_ASSIGN_OR_RETURN(uint32_t width, reader.GetU32());
  std::vector<Itemset> bases;
  bases.reserve(width);
  for (uint32_t i = 0; i < width; ++i) {
    PRIVBASIS_ASSIGN_OR_RETURN(std::vector<uint32_t> items,
                               reader.GetU32Vec());
    bases.push_back(Itemset(std::vector<Item>(items.begin(), items.end())));
  }
  return BasisSet(std::move(bases));
}

std::string EncodeItemsets(std::span<const Itemset> sets) {
  Writer w;
  w.PutU32(static_cast<uint32_t>(sets.size()));
  for (const Itemset& s : sets) w.PutU32Vec(s.items());
  return std::move(w).Take();
}

Result<std::vector<Itemset>> DecodeItemsets(Reader& reader) {
  PRIVBASIS_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  std::vector<Itemset> sets;
  sets.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PRIVBASIS_ASSIGN_OR_RETURN(std::vector<uint32_t> items,
                               reader.GetU32Vec());
    sets.push_back(Itemset(std::vector<Item>(items.begin(), items.end())));
  }
  return sets;
}

std::string EncodeU64Vecs(const std::vector<std::vector<uint64_t>>& vecs) {
  Writer w;
  w.PutU32(static_cast<uint32_t>(vecs.size()));
  for (const auto& v : vecs) w.PutU64Vec(v);
  return std::move(w).Take();
}

Result<std::vector<std::vector<uint64_t>>> DecodeU64Vecs(
    std::string_view payload) {
  Reader r(payload);
  PRIVBASIS_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  std::vector<std::vector<uint64_t>> vecs;
  vecs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PRIVBASIS_ASSIGN_OR_RETURN(std::vector<uint64_t> v, r.GetU64Vec());
    vecs.push_back(std::move(v));
  }
  PRIVBASIS_RETURN_NOT_OK(r.ExpectEnd());
  return vecs;
}

std::string EncodeError(const Status& status) {
  Writer w;
  w.PutU32(static_cast<uint32_t>(status.code()));
  w.PutString(status.message());
  return std::move(w).Take();
}

Status DecodeError(std::string_view payload) {
  Reader r(payload);
  auto code = r.GetU32();
  auto message = r.GetString();
  if (!code.ok() || !message.ok()) {
    return Status::Internal("malformed shard error frame");
  }
  return Status(static_cast<StatusCode>(*code), *message);
}

}  // namespace privbasis::shardwire
