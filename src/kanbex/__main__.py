import sys

try:
    from .cli import main
except KeyboardInterrupt:
    # Ctrl-C before main's own handler is in place ends the same way
    print("kanbex: interrupted", file=sys.stderr)
    sys.exit(2)

if __name__ == "__main__":
    sys.exit(main())
