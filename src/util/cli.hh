/**
 * @file
 * Minimal command-line flag parsing for examples and benchmarks.
 *
 * Supports --name=value and --name value forms plus boolean switches,
 * with typed getters and automatic --help output.
 */

#ifndef SPG_UTIL_CLI_HH
#define SPG_UTIL_CLI_HH

#include <climits>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace spg {

/**
 * A declarative command-line parser. Flags are registered with a
 * default value and a help string; parse() then consumes argv and
 * fatal()s on unknown flags or malformed values.
 */
class CliParser
{
  public:
    /** @param program_summary One-line description shown by --help. */
    explicit CliParser(std::string program_summary);

    /** Register an integer flag. */
    void addInt(const std::string &name, long long default_value,
                const std::string &help);

    /** Register a floating-point flag. */
    void addDouble(const std::string &name, double default_value,
                   const std::string &help);

    /** Register a string flag. */
    void addString(const std::string &name,
                   const std::string &default_value,
                   const std::string &help);

    /** Register a boolean switch (present => true). */
    void addBool(const std::string &name, bool default_value,
                 const std::string &help);

    /**
     * Parse argv. Prints help and exits 0 on --help; fatal()s on
     * unknown flags or type errors.
     */
    void parse(int argc, char **argv);

    /** @return the parsed (or default) value of an integer flag. */
    long long getInt(const std::string &name) const;

    /** @return the parsed (or default) value of a double flag. */
    double getDouble(const std::string &name) const;

    /** @return the parsed (or default) value of a string flag. */
    std::string getString(const std::string &name) const;

    /** @return the parsed (or default) value of a boolean switch. */
    bool getBool(const std::string &name) const;

    /** @return an integer flag; fatal()s naming the flag unless it
     *  lies in [lo, hi]. */
    long long getIntIn(const std::string &name, long long lo,
                       long long hi = LLONG_MAX) const;

    /** @return a double flag; fatal()s naming the flag unless it is
     *  finite and lies in [lo, hi]. */
    double getDoubleIn(
        const std::string &name, double lo,
        double hi = std::numeric_limits<double>::infinity()) const;

    /** @return a double flag; fatal()s naming the flag unless it is
     *  finite and > 0. */
    double getPositiveDouble(const std::string &name) const;

    /** @return true when argv set the flag, rather than its default. */
    bool given(const std::string &name) const;

    /** Positional (non-flag) arguments in order of appearance. */
    const std::vector<std::string> &positional() const { return args; }

  private:
    enum class Kind { Int, Double, String, Bool };

    struct Flag
    {
        Kind kind;
        std::string value;
        std::string defaultValue;
        std::string help;
        bool given = false;
    };

    const Flag &find(const std::string &name, Kind kind) const;
    void printHelp(const char *argv0) const;

    std::string summary;
    std::map<std::string, Flag> flags;
    std::vector<std::string> args;
};

} // namespace spg

#endif // SPG_UTIL_CLI_HH
