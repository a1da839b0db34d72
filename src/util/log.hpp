// Lightweight leveled logging used across the safe-adaptation libraries.
//
// The logger is intentionally minimal: a global level, a pluggable sink, and
// printf-free formatting via operator<< streaming.  Benchmarks set the level
// to Off so that logging cost never pollutes measurements; protocol tests
// install a capturing sink to assert on emitted traces.
#pragma once

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

namespace sa::util {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Returns the printable name of a level ("TRACE", "DEBUG", ...).
std::string_view to_string(LogLevel level);

/// Global minimum level; messages below it are discarded before formatting.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Sink invoked for every emitted record. Defaults to stderr.
using LogSink = std::function<void(LogLevel, std::string_view component, std::string_view message)>;
void set_log_sink(LogSink sink);
void reset_log_sink();

namespace detail {
void emit(LogLevel level, std::string_view component, std::string_view message);
}

/// Streaming log record: `LogRecord(LogLevel::Info, "manager") << "x=" << x;`
/// The message is emitted when the record goes out of scope.
///
/// A disabled record (level below the global threshold) does no work at all:
/// the component stays a borrowed string_view (callers pass literals that
/// outlive the statement) and the ostringstream is only allocated on the
/// first streamed value, so `SA_DEBUG(...) << ...` costs two stores and a
/// branch when debug logging is off. bench_protocol guards this with
/// BM_DisabledLogging. The stream lives behind a pointer, not in a
/// std::optional: with -fsanitize=address, GCC 12 reports the disengaged
/// optional's payload as maybe-uninitialized, which -Werror turns fatal.
class LogRecord {
 public:
  LogRecord(LogLevel level, std::string_view component)
      : level_(level), component_(component), enabled_(level >= log_level()) {}
  LogRecord(const LogRecord&) = delete;
  LogRecord& operator=(const LogRecord&) = delete;
  ~LogRecord() {
    if (!enabled_) return;
    const std::unique_ptr<std::ostringstream> stream(stream_);
    detail::emit(level_, component_, stream ? stream->str() : std::string());
  }

  template <typename T>
  LogRecord& operator<<(const T& value) {
    if (enabled_) {
      if (stream_ == nullptr) stream_ = new std::ostringstream;
      *stream_ << value;
    }
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  bool enabled_;
  /// Allocated by the first << of an enabled record and deleted by the
  /// destructor, so a disabled record's destructor is its one enabled_
  /// branch (a smart-pointer member would add a second test).
  std::ostringstream* stream_ = nullptr;
};

}  // namespace sa::util

#define SA_LOG(level, component) ::sa::util::LogRecord(level, component)
#define SA_TRACE(component) SA_LOG(::sa::util::LogLevel::Trace, component)
#define SA_DEBUG(component) SA_LOG(::sa::util::LogLevel::Debug, component)
#define SA_INFO(component) SA_LOG(::sa::util::LogLevel::Info, component)
#define SA_WARN(component) SA_LOG(::sa::util::LogLevel::Warn, component)
#define SA_ERROR(component) SA_LOG(::sa::util::LogLevel::Error, component)
