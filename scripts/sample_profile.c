/*
 * A leaf-instruction sampler for any Linux program, loaded with LD_PRELOAD by
 * scripts/sample_profile.sh (see there for usage).
 *
 * When SAMPLE_PROFILE_DIR is set, a constructor arms a process CPU-time timer
 * (CLOCK_PROCESS_CPUTIME_ID, every 1 ms; the kernel delivers it no more often than its
 * scheduler tick), and the SIGPROF handler stores the interrupted instruction pointer in
 * a fixed array. Such a timer is deleted by execve, so a program that re-executes itself
 * is never hit by a signal it has no handler for yet. At exit a destructor resolves each
 * distinct address to the loaded object that holds it and its link-time address there
 * (the object's load bias subtracted, which is what addr2line takes), and writes one line
 * per address to $SAMPLE_PROFILE_DIR/samples.<pid>:
 * "<samples>\t<object path>\t<hex address>". Processes the program starts inherit
 * LD_PRELOAD and write their own file if they were sampled at all. Nothing in the program
 * is changed; a process that ends without running exit handlers (killed by a signal, or
 * _exit) writes nothing.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)
#define INTERVAL_NS 1000000

static uintptr_t samples[MAX_SAMPLES];
static unsigned long taken;
static timer_t timer;
/* The process that armed the timer; a forked child inherits the samples taken so far but
 * not the timer, and must not write them again. */
static pid_t owner;

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    ucontext_t *uc = context;
#if defined(__x86_64__)
    uintptr_t ip = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    uintptr_t ip = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sample_profile.c: unsupported architecture"
#endif
    unsigned long slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot < MAX_SAMPLES) {
        samples[slot] = ip;
    }
}

__attribute__((constructor)) static void start_sampling(void) {
    if (getenv("SAMPLE_PROFILE_DIR") == NULL) {
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev;
    memset(&ev, 0, sizeof ev);
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &ev, &timer) != 0) {
        fprintf(stderr, "sample_profile: timer_create: %s\n", strerror(errno));
        return;
    }
    struct itimerspec every = {{0, INTERVAL_NS}, {0, INTERVAL_NS}};
    timer_settime(timer, 0, &every, NULL);
    owner = getpid();
}

/* The object holding one address, filled in by find_object. */
struct lookup {
    uintptr_t ip;
    const char *name;
    uintptr_t address;
    int found;
};

static int find_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    struct lookup *l = data;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
        if (ph->p_type == PT_LOAD && l->ip >= lo && l->ip < lo + ph->p_memsz) {
            l->name = info->dlpi_name;
            l->address = l->ip - info->dlpi_addr;
            l->found = 1;
            return 1;
        }
    }
    return 0;
}

static int by_address(const void *a, const void *b) {
    uintptr_t x = *(const uintptr_t *)a, y = *(const uintptr_t *)b;
    return (x > y) - (x < y);
}

__attribute__((destructor)) static void write_samples(void) {
    const char *dir = getenv("SAMPLE_PROFILE_DIR");
    if (dir == NULL) {
        return;
    }
    if (owner == 0 || owner != getpid()) {
        return;
    }
    timer_delete(timer);
    unsigned long n = __atomic_load_n(&taken, __ATOMIC_RELAXED);
    if (n > MAX_SAMPLES) {
        fprintf(stderr, "sample_profile: kept the first %u of %lu samples\n", MAX_SAMPLES, n);
        n = MAX_SAMPLES;
    }
    if (n == 0) {
        return;
    }
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = '\0';
    char path[4096];
    snprintf(path, sizeof path, "%s/samples.%ld", dir, (long)getpid());
    FILE *out = fopen(path, "w");
    if (out == NULL) {
        fprintf(stderr, "sample_profile: cannot write %s: %s\n", path, strerror(errno));
        return;
    }
    qsort(samples, n, sizeof samples[0], by_address);
    for (unsigned long i = 0; i < n;) {
        unsigned long j = i;
        while (j < n && samples[j] == samples[i]) {
            j++;
        }
        struct lookup l = {samples[i], NULL, samples[i], 0};
        dl_iterate_phdr(find_object, &l);
        /* The main program is listed with an empty name. */
        const char *name = !l.found ? "?" : (l.name[0] == '\0' ? exe : l.name);
        fprintf(out, "%lu\t%s\t%#lx\n", j - i, name, (unsigned long)l.address);
        i = j;
    }
    fclose(out);
}
