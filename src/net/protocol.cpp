#include "net/protocol.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "net/schema.h"

namespace ap::net {

namespace {

template <class E>
const char* name_of(E e) {
  auto names = schema::names(e);
  size_t i = static_cast<size_t>(e);
  return i < names.size() ? names[i] : "?";
}

// JSON writer: one object member per field that differs from its default.
class JsonWriter {
 public:
  explicit JsonWriter(json::Value* obj) : obj_(obj) {}

  template <class T>
  void operator()(unsigned char, const char* key, const T& x, const T& def) {
    if (schema::omitted(x, def)) return;
    json::Value v = to_json(x);
    if (schema::Message<T> && v.size() == 0) return;
    obj_->set(key, std::move(v));
  }
  template <class T>
  void opt(unsigned char, const char* key, const bool& has, const T& x) {
    if (has) obj_->set(key, to_json(x));
  }
  void hex(unsigned char, const char* key, const uint64_t& x) {
    if (x) obj_->set(key, format_key(x));
  }
  template <class G>
  void group(const char* key, const G& g) {
    json::Value sub = to_json(g);
    if (sub.size() > 0) obj_->set(key, std::move(sub));
  }

  template <class T>
  static json::Value to_json(const T& x) {
    if constexpr (std::is_enum_v<T>) {
      return name_of(x);
    } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      if constexpr (std::is_signed_v<T>)
        return static_cast<int64_t>(x);
      else
        return static_cast<uint64_t>(x);
    } else if constexpr (schema::Message<T>) {
      json::Value obj = json::Value::object();
      JsonWriter w(&obj);
      schema::fields(w, const_cast<T&>(x));
      return obj;
    } else if constexpr (schema::Scalar<T> ||
                         std::is_same_v<T, json::Value>) {
      return x;
    } else {
      json::Value arr = json::Value::array();
      for (const auto& e : x) arr.push(to_json(e));
      return arr;
    }
  }

 private:
  json::Value* obj_;
};

// JSON reader: absent fields take their default, present ones must have
// the field's kind. The first error latches; later fields are skipped.
class JsonReader {
 public:
  explicit JsonReader(const json::Value* obj) : obj_(obj) {}

  bool ok() const { return err_.empty(); }
  const std::string& error() const { return err_; }

  template <class T>
  void operator()(unsigned char, const char* key, T& x, const T& def) {
    if (const json::Value* v = find(key))
      read(*v, key, x);
    else if constexpr (schema::Scalar<T>)
      x = def;
  }
  template <class T>
  void opt(unsigned char, const char* key, bool& has, T& x) {
    if (const json::Value* v = find(key)) {
      has = true;
      read(*v, key, x);
    }
  }
  void hex(unsigned char, const char* key, uint64_t& x) {
    x = 0;
    const json::Value* v = find(key);
    if (v && (!v->is_string() || !parse_key(v->as_string(), &x)))
      fail(key, "a hex string");
  }
  template <class G>
  void group(const char* key, G& g) {
    static const json::Value kEmpty = json::Value::object();
    const json::Value* sub = find(key);
    read(sub ? *sub : kEmpty, key, g);
  }

  template <class T>
  void read(const json::Value& v, const char* key, T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      if (!v.is_bool()) return fail(key, "a bool");
      x = v.as_bool();
    } else if constexpr (std::is_enum_v<T>) {
      auto names = schema::names(x);
      for (size_t i = 0; i < names.size(); ++i) {
        if (v.is_string() && v.as_string() == names[i]) {
          x = static_cast<T>(i);
          return;
        }
      }
      fail(key, "a known name", v.is_string() ? v.as_string() : v.dump());
    } else if constexpr (std::is_floating_point_v<T>) {
      if (!v.is_number() || !std::isfinite(v.as_double()))
        return fail(key, "a finite number");
      x = v.as_double();
    } else if constexpr (std::is_integral_v<T>) {
      // Unsigned 64-bit values travel as their int64 bit pattern
      // (json::Value's uint64 constructor).
      using Wide = std::conditional_t<std::is_signed_v<T>, int64_t, uint64_t>;
      Wide w = static_cast<Wide>(v.as_int());
      if (!v.is_int() || !std::in_range<T>(w))
        return fail(key, "an integer in range");
      x = static_cast<T>(w);
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!v.is_string()) return fail(key, "a string");
      x = v.as_string();
    } else if constexpr (std::is_same_v<T, json::Value>) {
      if (!v.is_object()) return fail(key, "an object");
      x = v;
    } else if constexpr (schema::Message<T>) {
      if (!v.is_object()) return fail(key, "an object");
      const json::Value* outer = std::exchange(obj_, &v);
      schema::fields(*this, x);
      obj_ = outer;
    } else {
      if (!v.is_array()) return fail(key, "an array");
      for (const json::Value& item : v.items()) {
        typename T::value_type e{};
        read(item, key, e);
        if (!ok()) return;
        schema::add(x, std::move(e));
      }
    }
  }

 private:
  const json::Value* find(const char* key) const {
    return ok() ? obj_->find(key) : nullptr;
  }
  void fail(const char* key, const char* expected,
            const std::string& got = "") {
    if (!ok()) return;
    err_ = std::string("\"") + key + "\" must be " + expected;
    if (!got.empty()) err_ += " (got " + got + ")";
  }

  const json::Value* obj_;
  std::string err_;
};

template <class M>
bool read_json(const json::Value& v, M* out, std::string* err) {
  if (!v.is_object()) {
    if (err) *err = "message must be a JSON object";
    return false;
  }
  M m;
  JsonReader r(&v);
  schema::fields(r, m);
  if (!r.ok()) {
    if (err) *err = r.error();
    return false;
  }
  *out = std::move(m);
  return true;
}

}  // namespace

bool schema::read_request_json(const json::Value& v, Request* out,
                               std::string* err) {
  return read_json(v, out, err);
}

const char* request_type_name(RequestType t) { return name_of(t); }
const char* status_name(Status s) { return name_of(s); }

std::string format_key(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

bool parse_key(std::string_view hex, uint64_t* out) {
  if (hex.empty() || hex.size() > 16) return false;
  uint64_t v = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

bool validate(const Request& r, std::string* err) {
  auto fail = [&](std::string why) {
    if (err) *err = std::move(why);
    return false;
  };
  if (r.type != RequestType::Hello && r.version != kProtocolVersion)
    return fail("unsupported protocol version " + std::to_string(r.version) +
                " (this build speaks v" + std::to_string(kProtocolVersion) +
                "); send `hello`");
  RequestType t = r.type;
  if (t == RequestType::Forward) {
    t = r.inner;
    if (t != RequestType::Compile && t != RequestType::Run &&
        t != RequestType::CompileBatch)
      return fail("forward requires inner type compile, run, or "
                  "compile_batch");
  }
  uint64_t key;
  switch (t) {
    case RequestType::Run:
      if (r.interp.num_threads < 1 || r.interp.num_threads > kMaxRunThreads)
        return fail("run requires 1.." + std::to_string(kMaxRunThreads) +
                    " interpreter threads (got " +
                    std::to_string(r.interp.num_threads) + ")");
      [[fallthrough]];
    case RequestType::Compile:
      if (r.source.empty())
        return fail("compile/run request requires a non-empty \"source\"");
      break;
    case RequestType::CompileBatch:
      for (const BatchItem& b : r.batch)
        if (b.source.empty())
          return fail("batch items require a non-empty \"source\"");
      break;
    case RequestType::Register:
    case RequestType::Heartbeat:
      if (r.worker.id.empty()) return fail("worker id must be non-empty");
      break;
    case RequestType::CacheProbe:
    case RequestType::CacheFill:
    case RequestType::UnitFill:
      if (!parse_key(r.key, &key))
        return fail(std::string(request_type_name(r.type)) +
                    " requires a hex \"key\"");
      break;
    case RequestType::UnitProbe:
      if (r.keys.empty())
        return fail("unit_probe requires a non-empty \"keys\" list");
      for (const std::string& k : r.keys)
        if (!parse_key(k, &key))
          return fail("unit_probe \"keys\" must all be hex keys");
      break;
    default:
      break;
  }
  return true;
}

json::Value request_to_json(const Request& r) {
  return JsonWriter::to_json(r);
}

bool request_from_json(const json::Value& v, Request* out, std::string* err) {
  Request r;
  if (!read_json(v, &r, err) || !validate(r, err)) return false;
  *out = std::move(r);
  return true;
}

json::Value response_to_json(const Response& r) {
  return JsonWriter::to_json(r);
}

bool response_from_json(const json::Value& v, Response* out,
                        std::string* err) {
  return read_json(v, out, err);
}

}  // namespace ap::net
