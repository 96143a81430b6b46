#include "harness/report.hh"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench {

void
Report::fail(const std::string &what)
{
    std::cerr << "perfbench: check failed: " << what << "\n";
    ++attempted_;
    ++failed_;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

void
Report::printTable(std::ostream &os) const
{
    char buf[192];
    for (const Metric &m : metrics_) {
        std::snprintf(buf, sizeof buf, "  %-40s %18.6g %s\n",
                      m.name.c_str(), m.value, m.unit.c_str());
        os << buf;
    }
    std::snprintf(buf, sizeof buf, "  operations attempted %llu, failed %llu\n",
                  static_cast<unsigned long long>(attempted_),
                  static_cast<unsigned long long>(failed_));
    os << buf;
}

std::string
Report::jsonLine() const
{
    bool finite = true;
    std::string metrics;
    char buf[64];
    for (const Metric &m : metrics_) {
        double v = m.value;
        if (!std::isfinite(v)) {
            std::cerr << "perfbench: metric " << m.name
                      << " is not finite\n";
            finite = false;
            v = 0.0;
        }
        std::snprintf(buf, sizeof buf, "%.17g", v);
        metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
                   "\"}";
    }
    const bool correct = finite && failed_ == 0 && attempted_ > 0;
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted_) +
           ", \"failed\": " + std::to_string(failed_) +
           ", \"metrics\": {" + metrics + "}}";
}

double
peakRssMb()
{
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
