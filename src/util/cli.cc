#include "util/cli.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace spg {

CliParser::CliParser(std::string program_summary)
    : summary(std::move(program_summary))
{
}

void
CliParser::addInt(const std::string &name, long long default_value,
                  const std::string &help)
{
    std::string v = std::to_string(default_value);
    flags[name] = Flag{Kind::Int, v, v, help};
}

void
CliParser::addDouble(const std::string &name, double default_value,
                     const std::string &help)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", default_value);
    flags[name] = Flag{Kind::Double, buf, buf, help};
}

void
CliParser::addString(const std::string &name,
                     const std::string &default_value,
                     const std::string &help)
{
    flags[name] = Flag{Kind::String, default_value, default_value, help};
}

void
CliParser::addBool(const std::string &name, bool default_value,
                   const std::string &help)
{
    std::string v = default_value ? "1" : "0";
    flags[name] = Flag{Kind::Bool, v, v, help};
}

void
CliParser::printHelp(const char *argv0) const
{
    std::printf("%s — %s\n\nflags:\n", argv0, summary.c_str());
    for (const auto &[name, flag] : flags) {
        std::printf("  --%-20s %s (default: %s)\n", name.c_str(),
                    flag.help.c_str(), flag.defaultValue.c_str());
    }
    std::printf("  --%-20s %s\n", "help", "show this message");
}

void
CliParser::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            args.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        if (body == "help") {
            printHelp(argv[0]);
            std::exit(0);
        }
        std::string name = body;
        std::string value;
        bool have_value = false;
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            name = body.substr(0, eq);
            value = body.substr(eq + 1);
            have_value = true;
        }
        auto it = flags.find(name);
        if (it == flags.end())
            fatal("unknown flag '--%s' (try --help)", name.c_str());
        Flag &flag = it->second;
        if (flag.kind == Kind::Bool && !have_value) {
            flag.value = "1";
            flag.given = true;
            continue;
        }
        if (!have_value) {
            if (i + 1 >= argc)
                fatal("flag '--%s' expects a value", name.c_str());
            value = argv[++i];
        }
        // Validate typed values eagerly so errors point at the flag.
        char *end = nullptr;
        switch (flag.kind) {
          case Kind::Int:
            std::strtoll(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0')
                fatal("flag '--%s' expects an integer, got '%s'",
                      name.c_str(), value.c_str());
            break;
          case Kind::Double:
            std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0')
                fatal("flag '--%s' expects a number, got '%s'",
                      name.c_str(), value.c_str());
            break;
          case Kind::Bool:
            if (value != "0" && value != "1" && value != "true" &&
                value != "false") {
                fatal("flag '--%s' expects a boolean, got '%s'",
                      name.c_str(), value.c_str());
            }
            value = (value == "1" || value == "true") ? "1" : "0";
            break;
          case Kind::String:
            break;
        }
        flag.value = value;
        flag.given = true;
    }
}

const CliParser::Flag &
CliParser::find(const std::string &name, Kind kind) const
{
    auto it = flags.find(name);
    if (it == flags.end())
        panic("flag '--%s' was never registered", name.c_str());
    if (it->second.kind != kind)
        panic("flag '--%s' accessed with the wrong type", name.c_str());
    return it->second;
}

long long
CliParser::getInt(const std::string &name) const
{
    return std::strtoll(find(name, Kind::Int).value.c_str(), nullptr, 10);
}

double
CliParser::getDouble(const std::string &name) const
{
    return std::strtod(find(name, Kind::Double).value.c_str(), nullptr);
}

std::string
CliParser::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

bool
CliParser::getBool(const std::string &name) const
{
    return find(name, Kind::Bool).value == "1";
}

long long
CliParser::getIntIn(const std::string &name, long long lo,
                    long long hi) const
{
    long long v = getInt(name);
    if (v < lo || v > hi) {
        if (hi == LLONG_MAX)
            fatal("--%s must be >= %lld, got %lld", name.c_str(), lo, v);
        fatal("--%s must be in [%lld, %lld], got %lld", name.c_str(), lo,
              hi, v);
    }
    return v;
}

double
CliParser::getDoubleIn(const std::string &name, double lo, double hi) const
{
    double v = getDouble(name);
    if (!std::isfinite(v) || v < lo || v > hi) {
        if (std::isinf(hi))
            fatal("--%s must be a finite number >= %g, got %g",
                  name.c_str(), lo, v);
        fatal("--%s must be in [%g, %g], got %g", name.c_str(), lo, hi, v);
    }
    return v;
}

double
CliParser::getPositiveDouble(const std::string &name) const
{
    double v = getDouble(name);
    if (!std::isfinite(v) || v <= 0)
        fatal("--%s must be a finite number > 0, got %g", name.c_str(), v);
    return v;
}

bool
CliParser::given(const std::string &name) const
{
    auto it = flags.find(name);
    if (it == flags.end())
        panic("flag '--%s' was never registered", name.c_str());
    return it->second.given;
}

} // namespace spg
